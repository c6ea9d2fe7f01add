"""wastefigure benchmark: one closed-loop workload per run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-sweep-csv, sweep-planar, scalar-study (see bench/README.md).
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures half the time untraced and half traced and
reports the per-layer metrics, writing the spans to
``.bench_work/trace-<workload>-<seed>.json.gz``. Every op's outputs are
checked between ops, outside the timed interval. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    package = ROOT / "src" / "wastefigure"
    if not (package / "__init__.py").is_file():
        _fail(f"no program to measure: {package} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import wastefigure

    if Path(wastefigure.__file__).resolve().parent != package.resolve():
        _fail(f"imported wastefigure from {wastefigure.__file__}, not from {package}")
    return wastefigure


def measure(wl, tracer, seconds: float, first: int, tally: Counter, errors: list[str]):
    """Closed loop for ``seconds``: returns op latencies (ns) and failed ops."""
    latencies: list[int] = []
    failed = 0
    i = first
    deadline = time.monotonic() + seconds
    while True:
        error = None
        t0 = perf_counter_ns()
        try:
            if tracer.instrumented:
                with tracer.op(i):
                    out = wl.op(i, tracer)
            else:
                out = wl.op(i, tracer)
        except Exception as exc:  # a failing op is counted, and the loop goes on
            error = exc
        t1 = perf_counter_ns()
        if error is None:
            try:
                problems = wl.check(i, out, tally)
            except Exception as exc:  # a check that cannot read the outputs failed
                problems = [f"check raised {exc!r}"]
        else:
            problems = [f"op raised {error!r}"]
        latencies.append(t1 - t0)
        if problems:
            failed += 1
            errors.append(f"op {i}: {'; '.join(problems)}")
        i += 1
        if time.monotonic() >= deadline:
            return latencies, failed


def _child_done_at(argv: list[str], env: dict | None = None) -> float:
    """Seconds from starting ``argv`` to the monotonic time it prints."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S, cwd=ROOT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return (int(proc.stdout.split()[-1]) - t0) / 1e9


def setup_seconds(wl_name: str, seed: int, work: Path) -> list[float]:
    argv = [sys.executable, str(ROOT / "bench" / "setup_probe.py"), wl_name, str(seed), str(work)]
    return [_child_done_at(argv) for _ in range(SETUP_PROBES)]


def cli_startup_seconds(env: dict) -> list[float]:
    argv = [sys.executable, "-c", "import time, wastefigure.cli; print(time.monotonic_ns())"]
    return [_child_done_at(argv, env) for _ in range(SETUP_PROBES)]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wastefigure = _load_program()
    from wfbench import context, report, stats
    from wfbench.tracing import Tracer, summarize
    from wfbench.workloads import WORKLOADS, program_env

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        nproc = context.nproc()
        wl = WORKLOADS[args.workload](ROOT, work, args.seed, nproc)
        ctx = context.collect(
            ROOT, wastefigure.__version__,
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, grid=wl.grid,
        )
        print("context: " + json.dumps(ctx))

        tally: Counter = Counter()
        errors: list[str] = []
        tracer = Tracer()
        warm, warm_failed = measure(wl, tracer, 0.0, 0, Counter(), errors)
        attempted, failed = len(warm), warm_failed

        if args.trace == 0:
            lat, f = measure(wl, tracer, args.seconds, 0, tally, errors)
            who = resource.RUSAGE_CHILDREN if wl.op_in_child else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            attempted += len(lat)
            failed += f
            setup = setup_seconds(wl.name, args.seed, work)
            busy_s = sum(lat) / 1e9
            tail, tail_pct, beyond = stats.tail_pick(lat)
            probes = tally["probes"]
            mismatches = tally["mismatch.region"] + tally["mismatch.relay"] + tally["mismatch.fwa"]
            values = {
                "latency_p50_ms": median(lat) / 1e6,
                "latency_tail_ms": tail / 1e6,
                "throughput_ops_s": len(lat) / busy_s,
                "setup_s": median(setup),
                "peak_rss_mb": peak_rss_mb,
                "points_per_s": len(lat) * wl.points_per_op / busy_s if wl.points_per_op else None,
                "error_rate": failed / attempted,
                "verdict_mismatch_frac": mismatches / probes if probes else 0.0,
            }
            notes = {
                "latency_tail_ms": f"p{tail_pct:g} of n={len(lat)}, {beyond} samples beyond",
                "throughput_ops_s": f"{len(lat)} ops / {busy_s:.3f} s busy",
                "setup_s": f"median of {len(setup)} fresh interpreters",
                "points_per_s": "" if wl.points_per_op else "no grid in this workload",
                "error_rate": f"{failed}/{attempted}",
                "verdict_mismatch_frac": f"{mismatches}/{probes} probes",
            }
            print(f"{wl.name}: {len(lat)} ops in {args.seconds:g} s, seed {args.seed}")
            for name, unit in report.END_TO_END + report.PRINTED_ONLY:
                v = values[name]
                shown = "n/a" if v is None else f"{_fmt(v)} {unit}"
                print(f"  {name:<24} {shown:<22} {notes.get(name, '')}")
            metrics = {n: {"value": values[n], "unit": u} for n, u in report.END_TO_END}
        else:
            half = args.seconds / 2.0
            plain, f1 = measure(wl, tracer, half, 0, tally, errors)
            tracer.instrument(wastefigure)
            traced, f2 = measure(wl, tracer, half, len(plain), tally, errors)
            tracer.restore()
            attempted += len(plain) + len(traced)
            failed += f1 + f2
            summary = summarize(tracer.spans)
            extra = wl.side_probes()
            extra["cli.startup_s"] = median(cli_startup_seconds(program_env(ROOT)))
            extra["trace.overhead_ms"] = (median(traced) - median(plain)) / 1e6
            values = report.layer_values(
                summary, tally, len(traced), len(plain) + len(traced), extra
            )
            print(f"{wl.name}: {len(plain)} untraced + {len(traced)} traced ops, seed {args.seed}")
            for name, unit, _ in report.PER_LAYER:
                print(f"  {name:<32} {_fmt(values[name])} {unit}")
            print("  self time per op by layer: " + ", ".join(
                f"{k} {_fmt(v * 1e3)} ms" for k, v in report.layer_self_times(summary, len(traced)).items()
            ))
            tracer.dump(
                bench_dir / f"trace-{wl.name}-{args.seed}.json.gz",
                context=ctx, summary=summary, layers=values,
            )
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in report.PER_LAYER}
        for line in errors[:10]:
            print(f"bench: {line}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

"""The three benchmark workloads: one op, its output checks, its probes.

Each workload is driven as a closed loop by ``run.py``: one caller, the
next op only after the previous one returned. ``op`` is the timed part.
``check`` runs between ops, outside the timed interval, and returns the
list of problems found (empty when the op's outputs are correct). It
also feeds the run's tally: consistency-probe counts and the sizes the
per-layer metrics need.

The grid workloads sweep documents with ``p_np = 0``, where the distance
rule and the energy verdict agree exactly. There a swept mask must agree
with the benchmark's own closed-form energy comparison on sampled rows
and columns, and with the program's verdict at sampled nodes, or the op
fails. On ``scalar-study`` half the documents have ``p_np > 0``, where
the program's rule and verdict are known to disagree (ROADMAP aim 3);
those probes are reported, not failed.

The program is called through its public API (``wastefigure.sweep_relay``,
``wastefigure.config.parse_scenario``...), never through names bound
here, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import wastefigure as wf
from wastefigure import cli, config

from . import inputs, reference
from .tracing import Tracer, load_spans

CLI_GRID = 501
PLANAR_GRID = 2001
PROBE_GRID = 21
CLI_TIMEOUT_S = 120
MASK_LINES = 8  # rows and as many columns of a swept mask checked per op
CSV_ROWS = 2048  # CSV rows whose x,y columns are parsed per op


@contextlib.contextmanager
def _no_regime_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wf.ApproximationRegimeWarning)
        yield


def _use(verdict) -> bool:
    """The verdict's decision: take the assisted route."""
    return verdict.use_relay if isinstance(verdict, wf.RelayVerdict) else verdict.use_ap


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def program_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class Workload:
    name = ""
    op_in_child = False  # the op runs in a child process (peak RSS is the child's)
    points_per_op = 0
    grid = ""
    POOL = 1

    def __init__(self, root: Path, work: Path, seed: int, nproc: int, pool: int | None = None):
        self.root = root
        self.work = work
        self.nproc = nproc
        self.rng = random.Random(seed)
        self.probe_rng = random.Random(seed ^ 0x5EED)
        self.pool = pool or self.POOL

    def op(self, i: int, tracer: Tracer):
        raise NotImplementedError

    def check(self, i: int, out, tally: Counter) -> list[str]:
        raise NotImplementedError

    def setup_op(self) -> None:
        """The first op, run in process by a fresh interpreter (set-up probe)."""
        self.op(0, Tracer())

    def side_probes(self) -> dict[str, float]:
        return {}

    # -- shared checks -----------------------------------------------------
    def _echo_identity(self, echo: dict) -> list[str]:
        """echo -> parse -> echo must give back the same mapping."""
        sf = config.parse_scenario(echo)
        again = (
            config.cascade_to_config(sf.cascade)
            if sf.kind == "cascade"
            else getattr(sf, sf.kind).to_config()
        )
        return [] if again == echo else ["echo -> parse -> echo is not the identity"]

    def _node_probes(self, verdict_fn, s, mask, nodes, tally: Counter) -> int:
        """Compare mask[i, j] with the scalar verdict at the node's geometry.

        ``nodes`` yields ``(i, j, d1, d2)``; exact ties (ratio == 1) are
        skipped. Returns the number of nodes that disagree.
        """
        bad = 0
        with _no_regime_warnings():
            for i, j, d1, d2 in nodes:
                v = verdict_fn(dataclasses.replace(s, d1=float(d1), d2=float(d2)))
                if v.ratio == 1.0:
                    continue
                tally["probes"] += 1
                bad += bool(mask[i, j]) != _use(v)
        tally["mismatch.region"] += bad
        return bad

    def _mask_lines(self, energies, doc: dict, mask, geometry) -> list[str]:
        """Check sampled rows and columns of a mask against the closed form.

        ``geometry(i, j)`` maps index arrays to ``(d1, d2, d3)``. Columns
        cross every thread's block of rows. Near-ties are skipped.
        """
        nx, ny = mask.shape
        rows = [self.probe_rng.randrange(nx) for _ in range(MASK_LINES)]
        cols = [self.probe_rng.randrange(ny) for _ in range(MASK_LINES)]
        i = np.concatenate([np.repeat(rows, ny), np.tile(np.arange(nx), MASK_LINES)])
        j = np.concatenate([np.tile(np.arange(ny), MASK_LINES), np.repeat(cols, nx)])
        cheaper, decided = reference.assisted_cheaper(energies, doc, *geometry(i, j))
        bad = int(np.count_nonzero((mask[i, j] != cheaper) & decided))
        return [f"mask differs from the closed-form energy comparison at {bad} sampled cells"] if bad else []

    def _interior(self, nx: int, ny: int, count: int):
        for _ in range(count):
            yield self.probe_rng.randint(1, nx - 2), self.probe_rng.randint(1, ny - 2)


class CliSweepCsv(Workload):
    """The CLI as users run it: ``fwa`` with a 501x501 grid, CSV and JSON out."""

    name = "cli-sweep-csv"
    op_in_child = True
    points_per_op = CLI_GRID * CLI_GRID
    grid = f"{CLI_GRID}x{CLI_GRID} normalized"
    POOL = 8
    NODE_PROBES = 16

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.docs = [inputs.fwa_doc(self.rng, with_pnp=False) for _ in range(self.pool)]
        self.paths = []
        self.scenarios = []
        for k, doc in enumerate(self.docs):
            path = self.work / f"fwa-{k}.json"
            _write_json(path, doc)
            self.paths.append(path)
            self.scenarios.append(config.parse_scenario(doc).fwa)
        self.csv = self.work / "region.csv"
        self.json = self.work / "report.json"
        self.stderr = self.work / "stderr.txt"
        self.spans = self.work / "spans.json.gz"

    def _cli_args(self, i: int) -> list[str]:
        return [
            "fwa", str(self.paths[i % len(self.paths)]),
            "--grid", str(CLI_GRID), str(CLI_GRID),
            "--csv", str(self.csv), "--json", str(self.json), "--quiet",
        ]

    def op(self, i: int, tracer: Tracer):
        if tracer.active:
            argv = [sys.executable, str(self.root / "bench" / "cli_traced.py"), str(self.spans)]
        else:
            argv = [sys.executable, "-m", "wastefigure.cli"]
        with open(self.stderr, "wb") as err:
            proc = subprocess.Popen(
                argv + self._cli_args(i),
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=program_env(self.root),
            )
            # wait(timeout=...) polls with sleeps of up to 50 ms, which
            # would round every latency up; a watchdog kills a hung CLI.
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
        if tracer.active and self.spans.exists():
            tracer.adopt(load_spans(self.spans), tracer.current())
            self.spans.unlink()
        return proc.returncode

    def setup_op(self) -> None:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self._cli_args(0))
        if code != 0:
            raise RuntimeError(f"wastefigure fwa exited with {code}")

    def check(self, i: int, returncode, tally: Counter) -> list[str]:
        notes = self.stderr.read_text(encoding="utf-8", errors="replace")
        tally["warnings"] += notes.count("note:")
        if returncode != 0:
            tally["exit_nonzero"] += 1
            return [f"exit code {returncode}: {notes.strip()[-300:]}"]
        problems = []
        with open(self.json, encoding="utf-8") as fh:
            doc = json.load(fh)
        grid = doc["region"]["grid"]
        nx, ny = grid["nx"], grid["ny"]
        raw = np.fromfile(self.csv, dtype=np.uint8)
        newlines = np.flatnonzero(raw == ord("\n"))
        if bytes(raw[: newlines[0]]) != b"x,y,advantageous":
            problems.append("CSV header is wrong")
        if len(newlines) - 1 != nx * ny:
            return problems + [f"CSV has {len(newlines) - 1} rows, expected {nx * ny}"]
        cells = raw[newlines[1:] - 1]
        if not (np.all(raw[newlines[1:] - 2] == ord(",")) and np.all((cells == 48) | (cells == 49))):
            return problems + ["CSV advantageous column is not 0/1"]
        csv_mask = (cells == 49).reshape(nx, ny)
        m = doc["region"]["mask"]
        if not np.array_equal(wf.rle_decode(m["first"], m["runs"], (nx, ny)), csv_mask):
            problems.append("JSON mask (RLE) differs from the CSV mask")
        frac = float(csv_mask.mean())
        if doc["report"]["area_fraction"] != frac or doc["region"]["area_fraction"] != frac:
            problems.append("area_fraction differs from the mask mean")
        problems += self._echo_identity(doc["scenario"])
        fwa_doc = self.docs[i % len(self.docs)]
        direct, assisted = reference.fwa_energies(fwa_doc)
        rep = doc["report"]
        if not (reference.close(rep["e_direct"], direct) and reference.close(rep["e_relayed"], assisted)):
            problems.append("FWA energies differ from the closed form")
        if rep["decision_margin"] != 0.0:
            tally["probes"] += 1
            if (rep["decision_margin"] > 0.0) != rep["use_ap"]:
                tally["mismatch.fwa"] += 1
                problems.append("sign of decision_margin disagrees with use_ap")
        s = self.scenarios[i % len(self.scenarios)]
        spec = wf.GridSpec(nx=nx, ny=ny, x_range=tuple(grid["x_range"]), y_range=tuple(grid["y_range"]))
        xs, ys = spec.x_points(), spec.y_points()
        problems += self._csv_coordinates(raw, newlines, xs, ys)
        problems += self._mask_lines(
            reference.fwa_energies, fwa_doc, csv_mask, lambda a, b: (xs[a] * s.d3, ys[b] * s.d3, s.d3)
        )
        nodes = ((a, b, xs[a] * s.d3, ys[b] * s.d3) for a, b in self._interior(nx, ny, self.NODE_PROBES))
        bad = self._node_probes(wf.fwa_verdict, s, csv_mask, nodes, tally)
        if bad:
            problems.append(f"CSV mask disagrees with fwa_verdict at {bad} probed nodes")
        tally["points"] += nx * ny
        tally["sweeps"] += 1
        tally["rle_runs"] += len(m["runs"])
        tally["rle_docs"] += 1
        tally["json_bytes"] += self.json.stat().st_size
        tally["json_docs"] += 1
        tally["csv_bytes"] += raw.size
        tally["csv_files"] += 1
        return problems

    def _csv_coordinates(self, raw, newlines, xs, ys) -> list[str]:
        """The x,y columns of sampled rows (first and last included) read back exactly.

        Row ``r`` is grid point ``(xs[r // ny], ys[r % ny])``; a float
        written at full precision parses back to the same float.
        """
        n, ny = len(newlines) - 1, len(ys)
        rows = {0, n - 1, *(self.probe_rng.randrange(n) for _ in range(CSV_ROWS))}
        bad = 0
        for r in rows:
            x, y, _ = bytes(raw[newlines[r] + 1 : newlines[r + 1]]).split(b",")
            bad += float(x) != xs[r // ny] or float(y) != ys[r % ny]
        return [f"CSV x,y differ from the grid points in {bad} of {len(rows)} sampled rows"] if bad else []


class SweepPlanar(Workload):
    """In process: load a relay scenario, planar 2001x2001 sweep, RLE and JSON."""

    name = "sweep-planar"
    points_per_op = PLANAR_GRID * PLANAR_GRID
    grid = f"{PLANAR_GRID}x{PLANAR_GRID} planar"
    POOL = 4
    NODE_PROBES = 32

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The path-loss exponent is fixed: the kernel's cost depends on it,
        # and runs with different seeds must do the same amount of work.
        self.docs = [
            inputs.relay_doc(self.rng, with_pnp=False, alpha=inputs.FIXED_ALPHA_PLANAR)
            for _ in range(self.pool)
        ]
        self.paths = []
        for k, doc in enumerate(self.docs):
            path = self.work / f"relay-{k}.json"
            _write_json(path, doc)
            self.paths.append(path)

    def op(self, i: int, tracer: Tracer):
        s = config.load_scenario(self.paths[i % len(self.paths)]).relay
        spec = wf.GridSpec.planar_around(s.d3, PLANAR_GRID, PLANAR_GRID)
        reg = wf.sweep_relay(s, spec, workers=self.nproc)
        doc = wf.region_json_doc(reg)
        with tracer.span("region.json"):
            text = json.dumps(doc)
        return s, reg, doc, text

    def check(self, i: int, out, tally: Counter) -> list[str]:
        s, reg, doc, text = out
        problems = []
        spec = reg.spec
        m = doc["mask"]
        if not np.array_equal(wf.rle_decode(m["first"], m["runs"], (spec.nx, spec.ny)), reg.mask):
            problems.append("RLE mask differs from the swept mask")
        if doc["area_fraction"] != float(reg.mask.mean()) or reg.area_fraction != doc["area_fraction"]:
            problems.append("area_fraction differs from the mask mean")
        if json.loads(text) != doc:
            problems.append("region JSON does not round-trip")
        problems += self._echo_identity(doc["scenario"])
        relay_doc = self.docs[i % len(self.docs)]
        direct, relayed = reference.relay_energies(relay_doc)
        with _no_regime_warnings():
            v = wf.relay_verdict(s)
        if not (reference.close(v.e_direct, direct) and reference.close(v.e_relayed, relayed)):
            problems.append("relay energies differ from the closed form")
        xs, ys = spec.x_points(), spec.y_points()
        problems += self._mask_lines(
            reference.relay_energies, relay_doc, reg.mask,
            lambda a, b: (np.hypot(xs[a], ys[b]), np.hypot(xs[a] - spec.d3, ys[b]), spec.d3),
        )
        nodes = (
            (a, b, math.hypot(xs[a], ys[b]), math.hypot(xs[a] - spec.d3, ys[b]))
            for a, b in self._interior(spec.nx, spec.ny, self.NODE_PROBES)
        )
        bad = self._node_probes(wf.relay_verdict, s, reg.mask, nodes, tally)
        if bad:
            problems.append(f"swept mask disagrees with relay_verdict at {bad} probed nodes")
        tally["points"] += spec.nx * spec.ny
        tally["sweeps"] += 1
        tally["rle_runs"] += len(m["runs"])
        tally["rle_docs"] += 1
        tally["json_bytes"] += len(text)
        tally["json_docs"] += 1
        return problems

    def side_probes(self) -> dict[str, float]:
        """One thread against ``nproc`` threads, and normalized against planar.

        Alternates the two worker counts, three sweeps each, on the same
        scenario and grid as the ops, and reports medians.
        """
        s = config.load_scenario(self.paths[0]).relay
        planar = wf.GridSpec.planar_around(s.d3, PLANAR_GRID, PLANAR_GRID)
        normalized = wf.GridSpec(nx=PLANAR_GRID, ny=PLANAR_GRID, d3=s.d3)
        times: dict[str, list[int]] = {"w1": [], "wn": [], "norm": []}
        for _ in range(3):
            for key, spec, workers in (
                ("w1", planar, 1), ("wn", planar, self.nproc), ("norm", normalized, self.nproc)
            ):
                t0 = perf_counter_ns()
                wf.sweep_relay(s, spec, workers=workers)
                times[key].append(perf_counter_ns() - t0)
        med = {k: sorted(v)[1] for k, v in times.items()}
        return {
            "region.sweep_s_w1": med["w1"] / 1e9,
            "region.thread_speedup": med["w1"] / med["wn"],
            "region.norm_sweep_ns_per_point": med["norm"] / self.points_per_op,
        }


class ScalarStudy(Workload):
    """In process: parse, evaluate and echo a seeded stream of scenario documents."""

    name = "scalar-study"
    grid = f"{PROBE_GRID}x{PROBE_GRID} normalized (probes only)"
    POOL = 2048
    NODE_PROBES = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.docs = inputs.scalar_stream(self.rng, self.pool)
        self.probe_spec = wf.GridSpec(nx=PROBE_GRID, ny=PROBE_GRID)

    def op(self, i: int, tracer: Tracer):
        kind, doc = self.docs[i % len(self.docs)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", wf.ApproximationRegimeWarning)
            sf = config.parse_scenario(doc)
            if kind == "cascade":
                result = (wf.cascade_waste(sf.cascade), wf.contribution_report(sf.cascade))
                echo = config.cascade_to_config(sf.cascade)
            elif kind == "link":
                ln = sf.link
                result = (
                    wf.energy_per_bit_link(ln.ctx, ln.terminals, ln.g_ch, mode="exact"),
                    wf.energy_per_bit_link(ln.ctx, ln.terminals, ln.g_ch, mode="approximate"),
                    None if ln.channel is None else wf.max_efficient_distance(
                        ln.ctx, ln.terminals, ln.channel.k, ln.channel.alpha
                    ),
                )
                echo = ln.to_config()
            elif kind == "relay":
                result = wf.relay_verdict(sf.relay)
                echo = sf.relay.to_config()
            else:
                result = wf.fwa_verdict(sf.fwa)
                echo = sf.fwa.to_config()
        return sf, result, echo, len(caught)

    def check(self, i: int, out, tally: Counter) -> list[str]:
        kind, doc = self.docs[i % len(self.docs)]
        sf, result, echo, n_warnings = out
        tally["warnings"] += n_warnings
        problems = self._echo_identity(echo)
        if kind == "cascade":
            w, rep = result
            stages = reference.cascade_stages(doc)
            if not (reference.close(w, reference.cascade_waste(stages)) and reference.close(rep.total_waste, w)):
                problems.append("cascade waste differs from the closed form")
            tally["cascade.stages"] += len(stages)
            tally["cascade.ops"] += 1
        elif kind == "link":
            exact, approx = reference.link_energies(doc)
            if not (reference.close(result[0], exact) and reference.close(result[1], approx)):
                problems.append("link energies differ from the closed form")
        else:
            s = sf.relay if kind == "relay" else sf.fwa
            energies = (reference.relay_energies if kind == "relay" else reference.fwa_energies)(doc)
            if not (reference.close(result.e_direct, energies[0]) and reference.close(result.e_relayed, energies[1])):
                problems.append(f"{kind} energies differ from the closed form")
            if result.decision_margin != 0.0:
                tally["probes"] += 1
                tally[f"mismatch.{kind}"] += (result.decision_margin > 0.0) != _use(result)
            sweep = wf.sweep_relay if kind == "relay" else wf.sweep_fwa
            verdict = wf.relay_verdict if kind == "relay" else wf.fwa_verdict
            mask = sweep(s, self.probe_spec).mask
            xs, ys = self.probe_spec.x_points(), self.probe_spec.y_points()
            nodes = (
                (a, b, xs[a] * s.d3, ys[b] * s.d3)
                for a, b in self._interior(PROBE_GRID, PROBE_GRID, self.NODE_PROBES)
            )
            self._node_probes(verdict, s, mask, nodes, tally)
        return problems


WORKLOADS = {w.name: w for w in (CliSweepCsv, SweepPlanar, ScalarStudy)}

"""Metric names, units and how each is computed from a run's records.

``END_TO_END`` are the metrics ``BENCHMARK.json`` gates: never zero on any
workload. ``PRINTED_ONLY`` end-to-end metrics are printed with them but
not gated: ``points_per_s`` exists on the grid workloads only, and
``error_rate`` and ``verdict_mismatch_frac`` are 0 on a correct run, so a
share of their median is no usable bound. ``error_rate`` is also in the
result line, as ``failed`` out of ``attempted``.
"""

from __future__ import annotations

from collections import Counter

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PRINTED_ONLY = (
    ("points_per_s", "1/s"),
    ("error_rate", "ratio"),
    ("verdict_mismatch_frac", "ratio"),
)

# (name, unit, better). Times are means per call of the named function;
# counts of work are per op; mismatches and failed exits are run totals.
PER_LAYER = (
    ("region.csv_s", "s", "lower"),
    ("region.csv_bytes", "bytes", "lower"),
    ("region.csv_mb_per_s", "MB/s", "higher"),
    ("region.sweep_s", "s", "lower"),
    ("region.sweep_ns_per_point", "ns", "lower"),
    ("region.points", "count", "higher"),
    ("region.sweep_s_w1", "s", "lower"),
    ("region.thread_speedup", "ratio", "higher"),
    ("region.norm_sweep_ns_per_point", "ns", "lower"),
    ("region.rle_s", "s", "lower"),
    ("region.rle_runs", "count", "lower"),
    ("region.json_s", "s", "lower"),
    ("region.json_bytes", "bytes", "lower"),
    ("region.verdict_mismatch", "count", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.wall_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("config.parse_s", "s", "lower"),
    ("config.echo_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("config.calls", "count", "lower"),
    ("cascade.eval_s", "s", "lower"),
    ("cascade.report_s", "s", "lower"),
    ("cascade.calls", "count", "lower"),
    ("cascade.stages", "count", "higher"),
    ("energy.link_s", "s", "lower"),
    ("energy.calls", "count", "lower"),
    ("energy.regime_warnings", "count", "lower"),
    ("relay.verdict_s", "s", "lower"),
    ("relay.calls", "count", "lower"),
    ("relay.margin_mismatch", "count", "lower"),
    ("fwa.verdict_s", "s", "lower"),
    ("fwa.calls", "count", "lower"),
    ("fwa.margin_mismatch", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(summary: dict, tally: Counter, traced_ops: int, ops: int, extra: dict) -> dict:
    """Per-layer values from the traced spans' summary and the run's tally.

    A layer that the workload does not reach reads 0.
    """

    def mean_s(*names: str) -> float:
        rows = [summary[n] for n in names if n in summary]
        return _div(sum(r["total_s"] for r in rows), sum(r["calls"] for r in rows))

    def calls_per_op(layer: str) -> float:
        calls = sum(r["calls"] for n, r in summary.items() if n.startswith(layer + "."))
        return _div(calls, traced_ops)

    csv_s = mean_s("region.write_region_csv")
    csv_bytes = _div(tally["csv_bytes"], tally["csv_files"])
    sweep_s = mean_s("region.sweep_relay", "region.sweep_fwa")
    points = _div(tally["points"], tally["sweeps"])
    values = {
        "region.csv_s": csv_s,
        "region.csv_bytes": csv_bytes,
        "region.csv_mb_per_s": _div(csv_bytes, csv_s) / 1e6,
        "region.sweep_s": sweep_s,
        "region.sweep_ns_per_point": _div(sweep_s, points) * 1e9,
        "region.points": points,
        "region.sweep_s_w1": 0.0,
        "region.thread_speedup": 0.0,
        "region.norm_sweep_ns_per_point": 0.0,
        "region.rle_s": mean_s("region.region_json_doc"),
        "region.rle_runs": _div(tally["rle_runs"], tally["rle_docs"]),
        "region.json_s": mean_s("region.json"),
        "region.json_bytes": _div(tally["json_bytes"], tally["json_docs"]),
        "region.verdict_mismatch": tally["mismatch.region"],
        "cli.startup_s": 0.0,
        "cli.wall_s": mean_s("op") if "cli.main" in summary else 0.0,
        "cli.self_s": _div(summary.get("cli.main", {}).get("self_s", 0.0), summary.get("cli.main", {}).get("calls", 0)),
        "cli.exit_nonzero": tally["exit_nonzero"],
        "config.parse_s": mean_s("config.parse_scenario"),
        "config.echo_s": mean_s("config.to_config", "config.cascade_to_config"),
        "config.load_s": mean_s("config.load_scenario"),
        "config.calls": calls_per_op("config"),
        "cascade.eval_s": mean_s("cascade.cascade_waste"),
        "cascade.report_s": mean_s("cascade.contribution_report"),
        "cascade.calls": calls_per_op("cascade"),
        "cascade.stages": _div(tally["cascade.stages"], tally["cascade.ops"]),
        "energy.link_s": mean_s("energy.energy_per_bit_link"),
        "energy.calls": calls_per_op("energy"),
        "energy.regime_warnings": _div(tally["warnings"], ops),
        "relay.verdict_s": mean_s("relay.relay_verdict"),
        "relay.calls": calls_per_op("relay"),
        "relay.margin_mismatch": tally["mismatch.relay"],
        "fwa.verdict_s": mean_s("fwa.fwa_verdict"),
        "fwa.calls": calls_per_op("fwa"),
        "fwa.margin_mismatch": tally["mismatch.fwa"],
        "trace.overhead_ms": 0.0,
    }
    values.update(extra)
    return values


def layer_self_times(summary: dict, traced_ops: int) -> dict[str, float]:
    """Self seconds per op of each layer (span-name prefix), for the printout."""
    out: dict[str, float] = {}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return {k: _div(v, traced_ops) for k, v in sorted(out.items())}

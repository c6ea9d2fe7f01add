"""Command-line entry point.

Usage:

    wastefigure cascade|link|relay|fwa <scenario.json>
                [--json PATH] [--csv PATH] [--grid NX NY] [--quiet]

stdout carries the report (numbers at 4 significant figures), stderr
carries diagnostics. Machine-readable outputs hold full precision.
Exit codes: 0 on success, 1 on validation errors or too little memory,
2 on I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

from . import config
from .cascade import Cascade, contribution_report
from .energy import (
    ApproximationRegimeWarning,
    energy_per_bit_link,
    link_waste,
    link_waste_approx,
    max_efficient_distance,
)
from .fwa import fwa_ellipse_axes, fwa_verdict
from .region import sweep_fwa, sweep_relay, region_json_doc, write_region_csv
from .relay import ellipse_axes, relay_verdict
from .units import linear_to_db

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(x, "#.4g")


def _fmt_db(x: float) -> str:
    return f"{x:.2f}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wastefigure",
        description="Waste-factor analysis of cascaded wireless systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="scenario file (JSON)")
        cmd.add_argument("--json", dest="json_path", metavar="PATH",
                         help="write a machine-readable report/region document")
        cmd.add_argument("--csv", dest="csv_path", metavar="PATH",
                         help="write the swept region as CSV (relay/fwa sweeps)")
        cmd.add_argument("--grid", nargs=2, type=int, metavar=("NX", "NY"),
                         help="sweep the advantageous region on an NX x NY grid")
        cmd.add_argument("--quiet", action="store_true", help="suppress the stdout report")
    return parser


def _db(name: str, ratio: float) -> float:
    """linear_to_db, whose error names the reported value that failed."""
    try:
        return linear_to_db(ratio)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _energy_line(name: str, e: float, n0: float) -> str:
    return f"{name} = {_fmt(e)} J/bit (E/N0 {_fmt_db(_db(f'{name} E/N0', e / n0))} dB)"


def _noted(fn, *args, **kwargs):
    """Call fn, demoting regime warnings to stderr notes, also when fn raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ApproximationRegimeWarning)
        try:
            return fn(*args, **kwargs)
        finally:
            for w in caught:
                print(f"note: {w.message}", file=sys.stderr)


def _cmd_cascade(sf: config.ScenarioFile) -> tuple[list[str], dict]:
    c: Cascade = sf.cascade
    rep = contribution_report(c)
    wf_db = _db("cascade waste W", rep.total_waste)
    lines = [f"W = {_fmt(rep.total_waste)}, WF = {_fmt_db(wf_db)} dB"]
    lines.append("stage contributions (largest first):")
    lines.append(f"  {'stage':<20} {'term':>12} {'share':>10}")
    for term in rep.terms:
        lines.append(f"  {term.label:<20} {_fmt(term.term):>12} {_fmt(term.share):>10}")
    doc = {
        "scenario": config.cascade_to_config(c),
        "report": {
            "waste": rep.total_waste,
            "waste_figure_db": wf_db,
            "terms": [dataclasses.asdict(t) for t in rep.terms],
        },
    }
    return lines, doc


def _cmd_link(sf: config.ScenarioFile) -> tuple[list[str], dict]:
    setup = sf.link
    w_exact = link_waste(setup.terminals, setup.g_ch)
    w_approx = link_waste_approx(setup.terminals, setup.g_ch)
    e_exact = energy_per_bit_link(setup.ctx, setup.terminals, setup.g_ch, mode="exact")
    e_approx = _noted(
        energy_per_bit_link, setup.ctx, setup.terminals, setup.g_ch, mode="approximate"
    )
    lines = [
        f"W_link = {_fmt(w_exact)} (WF {_fmt_db(_db('W_link', w_exact))} dB)",
        f"W_link approx = {_fmt(w_approx)}",
        _energy_line("E_b exact", e_exact, setup.ctx.n0),
        _energy_line("E_b approx", e_approx, setup.ctx.n0),
    ]
    if setup.channel is not None:
        d_star = max_efficient_distance(
            setup.ctx, setup.terminals, setup.channel.k, setup.channel.alpha
        )
        lines.append(
            "max efficient distance = "
            + (_fmt(d_star) if d_star is not None else "none")
        )
    else:
        d_star = None
        lines.append("max efficient distance = n/a (channel given as explicit gain)")
    doc = {
        "scenario": setup.to_config(),
        "report": {
            "w_link": w_exact,
            "w_link_approx": w_approx,
            "e_b": e_exact,
            "e_b_approx": e_approx,
            "max_efficient_distance": d_star,
        },
    }
    return lines, doc


# per-kind parts of the relay/fwa command: verdict, axes and sweep functions,
# the verdict's decision field and its label, whether to print the traffic mix
_TWO_HOP = {
    "relay": (relay_verdict, ellipse_axes, sweep_relay, "use_relay", "use relay", False),
    "fwa": (fwa_verdict, fwa_ellipse_axes, sweep_fwa, "use_ap", "use access point", True),
}


def _cmd_two_hop(sf: config.ScenarioFile) -> tuple[list[str], dict]:
    verdict_fn, axes_fn, sweep_fn, decision, label, show_mix = _TWO_HOP[sf.kind]
    s = getattr(sf, sf.kind)
    v = _noted(verdict_fn, s)
    report = dataclasses.asdict(v)
    lines = []
    if show_mix:
        mix = s.traffic
        lines.append(f"traffic mix: rho_u = {_fmt(mix.rho_u)}, rho_d = {_fmt(mix.rho_d)}")
    lines += [
        _energy_line("direct energy", v.e_direct, s.ctx.n0),
        _energy_line("assisted energy", v.e_relayed, s.ctx.n0),
        f"energy ratio (assisted/direct) = {_fmt(v.ratio)}",
        f"verdict: {label if report[decision] else 'use direct'}",
        f"rule margin = {_fmt(v.decision_margin)}",
    ]
    if s.alpha == 2.0:
        a, b = axes_fn(s)
        lines.append(f"ellipse semi-axes: a = {_fmt(a)} (d1/d3), b = {_fmt(b)} (d2/d3)")
        report["ellipse"] = {"a": a, "b": b}
    doc = {"scenario": s.to_config(), "report": report}
    spec = sf.sweep
    if spec is None:
        return lines, doc
    region = sweep_fn(s, spec)
    lines.append(
        f"advantageous area fraction = {_fmt(region.area_fraction)} "
        f"({spec.mode} grid {spec.nx}x{spec.ny})"
    )
    region_doc = region_json_doc(region)
    doc["region"] = {k: region_doc[k] for k in ("grid", "area_fraction", "mask")}
    report["area_fraction"] = region.area_fraction
    if sf.output.csv:
        write_region_csv(region, sf.output.csv)
        print(f"wrote region CSV: {sf.output.csv}", file=sys.stderr)
    return lines, doc


# each command's help text and handler
_COMMANDS = {
    "cascade": ("waste factor and per-stage contributions of a chain", _cmd_cascade),
    "link": ("end-to-end link waste, energy per bit, max efficient distance", _cmd_link),
    "relay": ("relay-versus-direct energy comparison", _cmd_two_hop),
    "fwa": ("access-point-versus-direct comparison under a traffic mix", _cmd_two_hop),
}


def _run(args) -> int:
    sf = config.load_scenario(args.file)
    if sf.kind != args.command:
        raise ValueError(
            f"the {args.command} command needs a matching scenario section; "
            f"the file holds a {sf.kind} scenario"
        )
    # a flag means its file section; --grid sets nx/ny of the sweep, or of an empty one
    sweep = sf.sweep
    csv_path, json_path = args.csv_path or sf.output.csv, args.json_path or sf.output.json
    if args.command not in _TWO_HOP:
        if args.grid is not None:
            raise ValueError("--grid applies to the relay and fwa commands only")
        if csv_path:
            raise ValueError("csv output applies to region sweeps (relay/fwa)")
    elif args.grid is not None:
        sweep = sweep or config._parse_sweep({}, getattr(sf, sf.kind).d3)
        try:
            sweep = dataclasses.replace(sweep, nx=args.grid[0], ny=args.grid[1])
        except ValueError as exc:
            raise ValueError(f"--grid: {exc}") from None
    if csv_path and sweep is None:
        raise ValueError("csv output requires a sweep (add a sweep section or --grid)")
    sf = dataclasses.replace(sf, sweep=sweep, output=config.OutputSpec(csv_path, json_path))
    lines, doc = _COMMANDS[args.command][1](sf)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        print(f"wrote JSON report: {json_path}", file=sys.stderr)
    if not args.quiet:
        print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError, MemoryError) as exc:
        prefix = "not enough memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())

"""The wastefigure CLI with its public functions traced, for the traced run.

Usage: python3 bench/cli_traced.py SPANS_OUT <wastefigure arguments>

Runs ``wastefigure.cli.main`` in this process with the program's public
functions wrapped (``cli.main`` itself is the outermost span), writes
the spans to SPANS_OUT and exits with the CLI's code.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import wastefigure  # noqa: E402
import wastefigure.cli  # noqa: E402

from wfbench.tracing import Tracer  # noqa: E402

out, *args = sys.argv[1:]
tracer = Tracer()
tracer.instrument(wastefigure)
# The report JSON is written by the CLI itself; trace it as region output.
tracer.wrap_attr(json, "dump", "region.json")
with tracer.op(0, None):
    code = wastefigure.cli.main(args)
tracer.restore()
tracer.dump(out)
sys.exit(code)

"""Helpers of the wastefigure benchmark (``bench/run.py``).

The package holds the benchmark's own code only: seeded inputs, the
workloads and their output checks, closed-form references, latency
statistics, the span tracer and the machine context. It never changes
the program under test; tracing wraps the program's public functions
from here, at run time.
"""

"""Machine and run context recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

LOAD = (
    "closed loop: one process, one caller, next op only after the previous "
    "one returned; at most nproc threads"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" where ``root`` is not a git work tree's top."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def collect(root: Path, package_version: str, **run) -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wastefigure": package_version,
        "git_commit": git_commit(root),
        "load": LOAD,
        **run,
    }

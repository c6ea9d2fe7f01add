"""Span tracer that wraps the program's public functions from outside.

A span is ``(name, start_ns, end_ns, parent, op_id)``; ``parent`` is the
index of the enclosing span in the same list, or -1. Spans are kept in
memory while the benchmark runs, one flat list per field so the garbage
collector has no per-span object to scan, and written out (gzipped
JSON) when it ends. Spans are recorded only inside :meth:`Tracer.op`, so
the benchmark's own output checks, which run between ops, leave no
spans.

Layers are named after the program's modules: every module of the
package is scanned, so modules added or removed later are followed.
``channel`` and ``units`` count as part of the ``energy`` layer, and the
scenario echo methods (``to_config``) as part of ``config``, which owns
parsing and echoing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
from contextlib import contextmanager
from time import perf_counter_ns

MERGED_LAYERS = {"units": "energy", "channel": "energy"}
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op_id")


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self._op_ids: list[int] = []
        self._stack: list[int] = []
        self._op_id = None
        self._restore: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[tuple]:
        return list(zip(self._names, self._starts, self._ends, self._parents, self._op_ids))

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._op_ids.append(self._op_id)
        self._ends.append(0)
        self._stack.append(idx)
        self._starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self._ends[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id, name: str | None = "op"):
        """One operation: spans opened inside share ``op_id``.

        ``name`` opens a root span around the operation; ``None`` records
        the spans without one.
        """
        self._op_id = op_id
        idx = None if name is None else self._open(name)
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)
            self._op_id = None

    @property
    def active(self) -> bool:
        return self._op_id is not None

    @property
    def instrumented(self) -> bool:
        return bool(self._restore)

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        if self._op_id is None:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self._names)
        op_id = self._op_ids[parent]
        for name, start, end, p, _ in spans:
            self._names.append(name)
            self._starts.append(start)
            self._ends.append(end)
            self._parents.append(parent if p < 0 else p + offset)
            self._op_ids.append(op_id)

    # -- instrumentation -------------------------------------------------
    def traced(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def wrap_attr(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name))

    def instrument(self, package) -> None:
        """Wrap every public function of the package's modules.

        Each wrapper replaces the function under every name the
        package's modules bind it to, so calls between modules (the CLI
        calling ``write_region_csv``, config calling ``db_to_linear``)
        are traced as well as the benchmark's own calls.
        """
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        replacements = {}
        echoes = set()
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = (obj, f"{MERGED_LAYERS.get(short, short)}.{attr}")
                elif inspect.isclass(obj) and "to_config" in vars(obj) and obj not in echoes:
                    echoes.add(obj)
                    self.wrap_attr(obj, "to_config", "config.to_config")
        for owner in (package, *modules):
            for attr, value in list(vars(owner).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    fn, name = replacements[id(value)]
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, self.traced(fn, name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path, **extra) -> None:
        """Write ``extra`` and the spans as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**extra, "span_fields": SPAN_FIELDS, "spans": self.spans}, fh)


def load_spans(path) -> list[list]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus what its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += own / 1e9
    return out

"""In-memory span tracer that wraps emhd1d's public functions from outside.

Nothing inside the package is edited.  ``install`` replaces each traced
function in every emhd1d module namespace that binds it (``evolve`` is bound
separately in ``solver``, ``blowup``, ``cli`` and ``diagnostics``), and the
two transforms on the ``GridSpec`` class; ``uninstall`` puts the originals
back.  A span is ``(name, start, end, parent, pass_id)``; self time is a
span's duration minus the durations of its direct children, so the self
times of one pass never add up to more than the pass.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import Counter, defaultdict
from pathlib import Path

# (defining module, attribute) -> span name.  Attributes of ``GridSpec`` are
# patched on the class; the rest wherever an emhd1d module binds them.
SPANNED = {
    ("spectral", "GridSpec.to_phys"): "spectral.to_phys",
    ("spectral", "GridSpec.to_coef"): "spectral.to_coef",
    ("solver", "evolve"): "solver.evolve",
    ("solver", "picard_solve"): "solver.picard_solve",
    ("blowup", "advect_trajectory"): "blowup.advect_trajectory",
    ("blowup", "riccati_invariant_report"): "blowup.riccati_invariant_report",
    ("blowup", "pv_blowup_coefficient"): "blowup.pv_blowup_coefficient",
    ("diagnostics", "norm_series"): "diagnostics.norm_series",
    ("diagnostics", "flux_defect_ratio"): "diagnostics.flux_defect_ratio",
    ("lp", "bernstein_check"): "lp.bernstein_check",
    ("lp", "commutator_check"): "lp.commutator_check",
    ("cli", "main"): "cli.main",
    ("cli", "cmd_selftest"): "cli.cmd_selftest",
}

# Functions that are counted, not spanned: a span per call would cost more
# than the call.
COUNTED = {("lp", "sobolev_norm"): "lp.sobolev_norm"}

MODULES = ("spectral", "lp", "solver", "blowup", "diagnostics", "cli")


class Tracer:
    """Collects spans and per-pass counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()  # (pass_id, counter name) -> n
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.pass_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.pass_id)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.pass_id, name)] += n

    def _spanned(self, name: str, fn):
        # The span logic is inlined rather than using ``span``: transforms
        # are called ~20 times per step, so the wrapper's cost shows.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid] = (name, t0, clock(), parent, self.pass_id)
            if name == "solver.evolve":
                self.count("solver.evolve_steps", len(result.step_times) - 1)
            elif name == "solver.picard_solve":
                self.count("solver.picard_iterations", len(result.iterates))
            return result

        return traced

    def _counted(self, name: str, fn):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        import importlib

        pkg = importlib.import_module("emhd1d")
        mods = [pkg] + [importlib.import_module(f"emhd1d.{m}") for m in MODULES]
        targets = [(k, v, self._spanned) for k, v in SPANNED.items()]
        targets += [(k, v, self._counted) for k, v in COUNTED.items()]
        for (modname, attr), name, make in targets:
            owner = importlib.import_module(f"emhd1d.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, make(name, getattr(cls, meth)))
                continue
            fn = getattr(owner, attr)
            wrapper = make(name, fn)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key: str, new) -> None:
        self._saved.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self) -> None:
        while self._saved:
            obj, key, old = self._saved.pop()
            setattr(obj, key, old)

    def pass_summary(self, pass_id: int) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        done = [(i, s) for i, s in enumerate(self.spans) if s is not None and s[4] == pass_id]
        child = defaultdict(float)
        for _, (name, t0, t1, parent, _) in done:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _) in done:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[i]
        return dict(out)

    def pass_counts(self, pass_id: int) -> dict[str, int]:
        return {name: n for (pid, name), n in self.counts.items() if pid == pass_id}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "pass_id"])
            for i, s in enumerate(self.spans):
                if s is not None:
                    name, t0, t1, parent, pid = s
                    w.writerow([i, name, f"{t0:.9f}", f"{t1:.9f}", parent, pid])


class NullTracer:
    """Stand-in used for untraced passes: spans cost one no-op context."""

    pass_id = -1

    def span(self, name: str):
        return contextlib.nullcontext()

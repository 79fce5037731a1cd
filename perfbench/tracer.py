"""In-memory span recorder wrapped around panelmg's layer boundaries.

The benchmark never edits the package. ``Tracer.install`` replaces each
layer entry point *as its calling module sees it* (the name bound in that
module's globals, or the method on its class) with a wrapper that records a
span, and ``Tracer.uninstall`` puts the originals back. A boundary the
package no longer has is skipped, so its metrics read 0.

A span is (op, name, site, start, end, parent, units): ``op`` numbers the
benchmark operation the span belongs to, ``site`` is the module whose call
was wrapped, ``parent`` indexes the enclosing span (-1 for a root) and
``units`` is a size the wrapper read from the call (rows read, units left
out), or 0. Start and end are read from ``speed.program_cpu``: process CPU
seconds less the speed probe's chunks, so a span leaves out both the time
the process did not run and the probe's own work.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict

from speed import program_cpu

# (module or "module:Class", attribute, span name, size of the call or None)
BOUNDARIES = [
    ("panelmg", "read_csv", "panel.read_csv", "rows"),
    ("panelmg", "estimate", "estimators.estimate", None),
    ("panelmg.cli", "read_csv", "panel.read_csv", "rows"),
    ("panelmg.cli", "estimate", "estimators.estimate", None),
    ("panelmg.cli", "jackknife", "inference.jackknife", None),
    ("panelmg.cli", "confidence_interval", "inference.confidence_interval", None),
    ("panelmg.cli", "poolability_test", "inference.poolability_test", None),
    ("panelmg.cli", "run_monte_carlo", "simulation.run_monte_carlo", None),
    ("panelmg.panel", "validate_panel", "panel.validate_panel", None),
    ("panelmg.panel:PanelData", "without_unit", "panel.without_unit", None),
    ("panelmg.inference", "estimate", "estimators.estimate", None),
    ("panelmg.inference", "compute_ridge_kappa", "estimators.compute_ridge_kappa", None),
    ("panelmg.inference", "_loo_estimates", "inference.loo", "panel_units"),
    ("panelmg.estimators", "double_demean", "panel.double_demean", None),
    ("panelmg.estimators", "build_gram", "gram.build_gram", None),
    ("panelmg.estimators", "factorize", "gram.factorize", None),
    ("panelmg.estimators", "compute_ridge_kappa", "estimators.compute_ridge_kappa", None),
    ("panelmg.gram:GramFactorization", "solve", "gram.solve", None),
    ("panelmg.simulation", "simulate_dgp", "simulation.simulate_dgp", None),
    ("panelmg.simulation", "estimate", "estimators.estimate", None),
    ("panelmg.simulation", "compute_ridge_kappa", "estimators.compute_ridge_kappa", None),
    ("panelmg.simulation", "_loo_estimates", "inference.loo", "panel_units"),
    ("panelmg.simulation", "_replication", "simulation.replication", None),
]


def _size(kind, args, result) -> int:
    if kind == "rows":
        return int(result.n_units * result.n_periods)
    if kind == "panel_units":
        return int(args[0].n_units)
    return 0


class Tracer:
    """Records spans while installed; ``op`` tags the spans that follow."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = 0

    def call(self, name: str, site: str, fn, *args, size=None, **kwargs):
        """Run ``fn`` inside a span; the wrappers and the benchmark use this."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        units = 0
        start = program_cpu()
        try:
            result = fn(*args, **kwargs)
            if size is not None:
                units = _size(size, args, result)
            return result
        finally:
            end = program_cpu()
            self._stack.pop()
            self.spans[sid] = (self.op, name, site, start, end, parent, units)

    def _wrap(self, fn, name: str, site: str, size):
        def wrapper(*args, **kwargs):
            return self.call(name, site, fn, *args, size=size, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for where, attr, name, size in BOUNDARIES:
            module_name, _, cls = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            site = module_name.rpartition(".")[2]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, site, size))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path, extra: dict) -> None:
        """Write every span, and the entries of ``extra``, as one JSON object."""
        fields = ["op", "name", "site", "start", "end", "parent", "units"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": fields, "spans": self.spans}, fh)


def aggregate(spans, op: int | None = None) -> dict:
    """Per-name totals: calls, busy (outermost spans of the name), self, units.

    Keys are ``name`` and ``site/name``, each mapping to a dict with
    ``calls``, ``busy_s``, ``self_s`` and ``units``. Self time is a span's
    duration minus the durations of its direct children. With ``op`` given,
    only that op's spans are counted.
    """
    child = [0.0] * len(spans)
    for _, _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "units": 0})
    for i, (span_op, name, site, start, end, parent, units) in enumerate(spans):
        if op is not None and span_op != op:
            continue
        dur = end - start
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][1] == name:
                outermost = False
                break
            p = spans[p][5]
        for key in (name, f"{site}/{name}"):
            agg = out[key]
            agg["calls"] += 1
            agg["self_s"] += dur - child[i]
            agg["units"] += units
            if outermost:
                agg["busy_s"] += dur
    return out


def root_counts(spans, root_name: str, name: str, op: int | None = None) -> int:
    """Calls of ``name`` made beneath spans named ``root_name`` (in ``op`` if given)."""
    count = 0
    for span_op, span_name, _, _, _, parent, _ in spans:
        if span_name != name or (op is not None and span_op != op):
            continue
        p = parent
        while p >= 0:
            if spans[p][1] == root_name:
                count += 1
                break
            p = spans[p][5]
    return count

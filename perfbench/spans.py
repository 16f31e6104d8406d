"""Spans around the package's public functions, recorded from outside it.

:meth:`Tracer.patched` replaces, for the duration of a ``with`` block, the
name each caller resolves (a module attribute, or a classmethod) with a
wrapper that records a span, and restores the original afterwards. The
package's source is never edited. Spans are kept in memory; a span's self
time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: int = 0
    attrs: dict = field(default_factory=dict)


def _closure_attrs(args, kwargs, result) -> dict:
    seeds = args[0] if args else kwargs.get("generators", ())
    return {"dim": getattr(result, "dimension", 0),
            "depth": getattr(result, "bracket_depth_reached", 0),
            "seeds": len(seeds) if hasattr(seeds, "__len__") else 0}


def _points(args, kwargs, result) -> dict:
    return {"points": int(getattr(result, "size", 1))}


def _segments(args, kwargs, result) -> dict:
    return {"segments": len(args[1].segments)}


# (module, attribute or Class.classmethod, span name, attrs from the call)
TARGETS = [
    ("oscontrol.documents", "ModelDocument.from_path", "documents.parse", None),
    ("oscontrol.documents", "ScheduleDocument.from_path", "documents.parse", None),
    ("oscontrol.cli", "write_report", "documents.render", None),
    ("oscontrol.cli", "controllability_report", "chain.report", None),
    ("oscontrol.cli", "verify_bracket_identities", "chain.identities", None),
    ("oscontrol.chain", "positivity_condition", "chain.positivity", None),
    ("oscontrol.chain", "positive_triple", "chain.positive_triple", None),
    ("oscontrol.chain", "build_chain", "chain.build_chain", None),
    ("oscontrol.documents", "build_chain", "chain.build_chain", None),
    ("oscontrol.chain", "closure", "closure", _closure_attrs),
    ("oscontrol.closure", "commutator", "symplectic.commutator", None),
    ("oscontrol.closure", "SymplecticGenerator", "hamiltonians.validate", None),
    ("oscontrol.recurrence", "expm", "symplectic.expm.recurrence", None),
    ("oscontrol.evolution", "expm", "symplectic.expm.evolution", None),
    ("oscontrol.cli", "symplectic_eigenvalues", "williamson.eigenvalues", None),
    ("oscontrol.recurrence", "symplectic_eigenvalues", "williamson.eigenvalues", None),
    ("oscontrol.recurrence", "williamson_decompose", "williamson.decompose", None),
    ("oscontrol.cli", "spectrum_certificate", "williamson.certificate", None),
    ("oscontrol.cli", "find_recurrence", "recurrence.find", None),
    ("oscontrol.recurrence", "mode_distance", "recurrence.mode_distance", _points),
    ("oscontrol.cli", "propagate", "evolution.propagate", _segments),
    ("oscontrol.cli", "evolve_covariance", "evolution.covariance", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent=parent, op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, targets=TARGETS):
        """Wrap every target for the duration of the block.

        A target the package no longer has is skipped, so its metrics read
        zero instead of stopping the run.
        """
        restore = []
        try:
            for module_name, attr, name, attrs in targets:
                try:
                    owner = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, attrs))
                else:
                    replacement = self.wrap(name, original, attrs)
                restore.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def accounting_residual(spans: list, selfs: list) -> float:
    """Largest |sum of self times - root duration| over the operations.

    Zero up to rounding when every span nests inside its root, which is what
    lets the layers' self times be read as a breakdown of the operation.
    """
    totals: dict = {}
    roots: dict = {}
    for s, own in zip(spans, selfs):
        totals[s.op] = totals.get(s.op, 0.0) + own
        if s.parent is None:
            roots[s.op] = s.end - s.start
    return max((abs(totals[op] - roots[op]) for op in roots), default=0.0)


def layer_metrics(spans: list, ops: int) -> dict:
    """Per-operation figures for each layer, as {name: (value, unit)}."""
    selfs = self_times(spans)
    total: dict = {}
    own: dict = {}
    count: dict = {}
    for s, t in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + t
        count[s.name] = count.get(s.name, 0) + 1

    def per_op(table, name):
        return table.get(name, 0) / ops

    # in controllability_report the first closure is the raw control set and
    # every later one the positive triple
    closures_seen: dict = {}
    triple_closure_s = 0.0
    for s in spans:
        if s.name == "closure" and s.parent is not None:
            seen = closures_seen.get(s.parent, 0)
            closures_seen[s.parent] = seen + 1
            if seen:
                triple_closure_s += s.end - s.start
    closure_ids = {i for i, s in enumerate(spans) if s.name == "closure"}
    closures = [spans[i] for i in sorted(closure_ids)]
    brackets = sum(s.name == "symplectic.commutator" and s.parent in closure_ids for s in spans)
    candidates = brackets + sum(s.attrs.get("seeds", 0) for s in closures)
    accepted = sum(s.attrs.get("dim", 0) for s in closures)
    roots = [s.end - s.start for s in spans if s.parent is None]
    deciles = statistics.quantiles(roots, n=10) if len(roots) > 1 else roots * 9
    grid = sum(s.attrs.get("points", 0) for s in spans if s.name == "recurrence.mode_distance")
    segments = sum(s.attrs.get("segments", 0) for s in spans if s.name == "evolution.propagate")
    expm = "symplectic.expm."
    return {
        "cli.op_s.p50": (statistics.median(roots), "s"),
        "cli.op_s.p90": (deciles[8], "s"),
        "cli.self_s": (per_op(own, "cli"), "s"),
        "documents.parse_s": (per_op(total, "documents.parse"), "s"),
        "documents.render_s": (per_op(total, "documents.render"), "s"),
        "chain.report_s": (per_op(total, "chain.report"), "s"),
        "chain.self_s": (per_op(own, "chain.report"), "s"),
        "chain.positivity_s": (per_op(total, "chain.positivity"), "s"),
        "chain.triple_s": (
            (total.get("chain.positive_triple", 0.0) + triple_closure_s) / ops, "s"),
        "chain.identities_s": (per_op(total, "chain.identities"), "s"),
        "chain.closure_calls_per_op": (per_op(count, "closure"), "count"),
        "chain.build_chain_calls_per_op": (per_op(count, "chain.build_chain"), "count"),
        "closure.s": (per_op(total, "closure"), "s"),
        "closure.self_s": (per_op(own, "closure"), "s"),
        "closure.brackets": (brackets / ops, "count"),
        "closure.dim_found": (accepted / len(closures) if closures else 0.0, "count"),
        "closure.depth": (
            sum(s.attrs.get("depth", 0) for s in closures) / len(closures) if closures else 0.0,
            "count"),
        "closure.accept_ratio": (accepted / candidates if candidates else 0.0, "ratio"),
        "hamiltonians.validate_s": (per_op(total, "hamiltonians.validate"), "s"),
        "symplectic.commutator_s": (per_op(total, "symplectic.commutator"), "s"),
        "symplectic.expm_calls": (
            (count.get(expm + "recurrence", 0) + count.get(expm + "evolution", 0)) / ops,
            "count"),
        "symplectic.expm_calls.recurrence": (per_op(count, expm + "recurrence"), "count"),
        "symplectic.expm_calls.evolution": (per_op(count, expm + "evolution"), "count"),
        "symplectic.expm_s.recurrence": (per_op(total, expm + "recurrence"), "s"),
        "symplectic.expm_s.evolution": (per_op(total, expm + "evolution"), "s"),
        "williamson.decompose_s": (per_op(total, "williamson.decompose"), "s"),
        "williamson.eigenvalues_s": (per_op(total, "williamson.eigenvalues"), "s"),
        "williamson.certificate_s": (per_op(total, "williamson.certificate"), "s"),
        "williamson.eigenvalues_calls_per_op": (
            per_op(count, "williamson.eigenvalues"), "count"),
        "recurrence.find_s": (per_op(total, "recurrence.find"), "s"),
        "recurrence.self_s": (per_op(own, "recurrence.find"), "s"),
        "recurrence.grid_points": (grid / ops, "count"),
        "recurrence.mode_distance_s": (per_op(total, "recurrence.mode_distance"), "s"),
        "recurrence.expm_calls": (per_op(count, expm + "recurrence"), "count"),
        "evolution.propagate_s": (per_op(total, "evolution.propagate"), "s"),
        "evolution.self_s": (per_op(own, "evolution.propagate"), "s"),
        "evolution.segments": (segments / ops, "count"),
        "evolution.covariance_s": (per_op(total, "evolution.covariance"), "s"),
    }

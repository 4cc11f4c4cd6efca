"""Span tracer for the benchmark's traced passes.

The tracer wraps public functions of each rookq module from outside the
package.  A call to a layer function opens a span (name, start, end, parent,
operation id) that is kept in memory and written out after the pass.  The
scalar layer (``exact``) is called hundreds of thousands of times per
operation, so its calls are not kept as spans: each one is folded into a
per-name tally on the innermost open span, and its duration is recorded as
time that span did not spend on its own work.

A layer's self time is its span's duration minus the part of that interval
that child spans and folded ``exact`` calls cover (see ``self_times``).

Patching replaces every binding of a wrapped function: the defining module,
modules that imported it by name (``from .shapes import gbs_decompose``), the
package re-export, and class aliases such as ``__rmul__ = __mul__``.
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``metric`` is the layer name it reports under."""

    metric: str
    module: str
    qualname: str
    folded: bool = False  # an ``exact`` call folded into its enclosing span
    count: Optional[Callable] = None  # (args, result) -> amount of work done
    generator: bool = False  # count yielded items only, without a span


def _term_products(args, result) -> int:
    a, b = args[0], args[1]
    return len(a._terms) * (len(b._terms) if hasattr(b, "_terms") else 1)


def _length(args, result) -> int:
    return len(result)


def _nonzero(args, result) -> int:
    return 0 if result.is_zero else 1


def _basis_dim(args, result) -> int:
    from rookq.shapes import standard_count

    lam, mu = tuple(args[0]), tuple(args[1])
    return standard_count(lam, sum(mu))


TARGETS: Tuple[Target, ...] = (
    Target("exact.poly_mul", "exact", "LaurentPoly.__mul__", folded=True, count=_term_products),
    Target("exact.poly_add", "exact", "LaurentPoly.__add__", folded=True),
    Target("exact.exact_div", "exact", "LaurentPoly.exact_div", folded=True),
    Target("exact.rf_normalize", "exact", "RationalFunction.__init__", folded=True),
    Target("shapes.gbs_decompose", "shapes", "gbs_decompose"),
    Target("shapes.gbs_weight_k", "shapes", "gbs_weight_k", count=_nonzero),
    Target("shapes.sub_partitions", "shapes", "sub_partitions", count=_length),
    Target("shapes.subcompositions", "shapes", "subcompositions", count=_length),
    Target("shapes.vertical_strip_complements", "shapes", "vertical_strip_complements"),
    Target("symfunc.pexp_mul", "symfunc", "PExpansion.__mul__"),
    Target("symfunc.inner_product", "symfunc", "inner_product"),
    Target("symfunc.adjoint_apply", "symfunc", "adjoint_apply"),
    Target("symfunc.classical_char", "symfunc", "classical_char"),
    Target("characters.chi_mn", "characters", "chi_mn"),
    Target("characters.chi_iterative", "characters", "chi_iterative"),
    Target("characters.chi_oracle", "characters", "chi_oracle"),
    Target("characters.ab_poly", "characters", "a_poly"),
    Target("characters.ab_poly", "characters", "b_poly"),
    Target("characters.ab_poly_direct", "characters", "a_poly_direct"),
    Target("characters.ab_poly_direct", "characters", "b_poly_direct"),
    Target("bitrace.matrices", "bitrace", "contingency_matrices", generator=True),
    Target("bitrace.matrix_weight", "bitrace", "ContingencyMatrix.weight"),
    Target("bitrace.btr_matrix", "bitrace", "btr_matrix"),
    Target("bitrace.btr_def", "bitrace", "btr_def"),
    Target("bitrace.hl_inner", "bitrace", "hl_inner"),
    Target("seminormal.trace", "seminormal", "trace_standard_element", count=_basis_dim),
    Target("seminormal.quadratic_check", "seminormal", "quadratic_check"),
    Target("seminormal.commute_check", "seminormal", "commute_check"),
    Target("cli.emit", "cli", "emit_table_csv"),
    Target("cli.emit", "cli", "emit_table_json"),
    Target("cli.emit", "cli", "emit_table_latex"),
)

# Checks of ``verify.ALL_CHECKS`` are wrapped in place; each span is renamed
# ``verify.<check-name>`` from the result the check returns.
VERIFY_SPAN = "verify.check"

# The per-layer metrics a traced run reports, in BENCHMARK.json order.  Memo
# names are the 17 caches found at this commit; ``layer_metrics`` reports 0
# for a listed name that is absent, so the set of keys never changes.
MEMOS = (
    "shapes.partitions_of",
    "symfunc.hn_expansion",
    "symfunc.qn_expansion",
    "symfunc.qhat_expansion",
    "symfunc.qhat_mu",
    "symfunc.q_mu",
    "symfunc._classical_rec",
    "symfunc.schur_in_p",
    "characters.chi_oracle",
    "characters.chi_iterative",
    "characters.chi_mn",
    "characters._ab_tables",
    "bitrace.bracket",
    "seminormal._syt",
    "seminormal.enumerate_tableaux",
    "seminormal._index",
    "seminormal._gen_action",
)
CHECKS = (
    "exact-ring-axioms",
    "rf-canonical-form",
    "substitute-inverse-involution",
    "conjugate-involution",
    "hook-formula-square-sum",
    "subcomposition-counts",
    "qn-specializations",
    "qhat-lemma",
    "schur-orthonormality",
    "adjoint-duality",
    "h-adjoint-routes",
    "schur-decomposition",
    "mn-adjoint-identity",
    "cross-method-characters",
    "compact-formulas",
    "q1-classical-specialization",
    "chi-empty-monomial",
    "chi-ones-constant",
    "ab-families",
    "perm-sums",
    "hecke-diagonal-block",
    "bitrace-routes",
    "hl-inner-routes",
    "regular-character",
    "dimension-sequence",
    "seminormal-relations",
)


def _layer_metric_units() -> List[Tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out: List[Tuple[str, str, str]] = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for base in ("exact.poly_mul", "exact.poly_add", "exact.exact_div", "exact.rf_normalize"):
        add(base + ".calls", "count")
        add(base + ".self_s", "s")
        if base == "exact.poly_mul":
            add(base + ".term_products", "count")
    for base in ("shapes.gbs_decompose", "shapes.gbs_weight_k"):
        add(base + ".calls", "count")
        add(base + ".self_s", "s")
    add("shapes.sub_partitions.yielded", "count")
    add("shapes.strip_yield", "ratio", "higher")
    add("shapes.subcompositions.calls", "count")
    add("shapes.subcompositions.self_s", "s")
    add("shapes.subcompositions.yielded", "count")
    add("shapes.vertical_strip_complements.calls", "count")
    add("shapes.vertical_strip_complements.self_s", "s")
    for base in (
        "symfunc.pexp_mul",
        "symfunc.inner_product",
        "symfunc.adjoint_apply",
        "symfunc.classical_char",
        "characters.chi_mn",
        "characters.chi_iterative",
        "characters.chi_oracle",
        "characters.ab_poly",
        "characters.ab_poly_direct",
    ):
        add(base + ".calls", "count")
        add(base + ".self_s", "s")
    add("bitrace.matrices.yielded", "count")
    add("bitrace.matrix_weight.calls", "count")
    add("bitrace.matrix_weight.self_s", "s")
    add("bitrace.btr_matrix.self_s", "s")
    add("bitrace.btr_def.self_s", "s")
    add("bitrace.hl_inner.self_s", "s")
    add("seminormal.trace.calls", "count")
    add("seminormal.trace.self_s", "s")
    add("seminormal.basis_dim", "count")
    add("seminormal.quadratic_check.self_s", "s")
    add("seminormal.commute_check.self_s", "s")
    for memo in MEMOS:
        add(f"memo.{memo}.hits", "count", "higher")
        add(f"memo.{memo}.misses", "count")
    for check in CHECKS:
        add(f"verify.{check}.s", "s")
    add("cli.emit.self_s", "s")
    add("trace_overhead", "ratio")
    return out


LAYER_METRICS = _layer_metric_units()


class Span:
    """One call of a layer function, or the root span of an operation."""

    __slots__ = ("id", "name", "op", "parent", "start", "end", "covered", "count", "folded")

    def __init__(self, id: int, name: str, op: int, parent: Optional[int], start: float):
        self.id = id
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.covered = 0.0  # time spent in folded ``exact`` calls made directly here
        self.count = 0
        self.folded: Dict[str, List[float]] = {}  # name -> [calls, self_s, count]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    Children are the spans whose ``parent`` is the span's ``id``; their
    intervals are merged and clipped to the parent's, so overlapping or
    out-of-range children are not subtracted twice.  ``covered`` is time in
    folded calls, which never overlaps a child span.  ``spans[i].id == i``.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        busy = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    busy += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            busy += cur_hi - cur_lo
        out.append(s.end - s.start - busy - s.covered)
    return out


class Tracer:
    """Records spans for one pass; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.current: Optional[Span] = None
        self._folded_stack: List[List[float]] = []
        self._bindings: List[Tuple[object, str, object]] = []
        self._checks: Optional[Tuple[list, list]] = None

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self.current
        span = Span(len(self.spans), name, parent.op if parent else -1,
                    parent.id if parent else None, self.clock())
        self.spans.append(span)
        self.current = span
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self.current = self.spans[span.parent] if span.parent is not None else None

    def begin_op(self, op: int) -> None:
        """Open the root span of operation ``op``."""
        span = self._open("op")
        span.op = op

    def end_op(self) -> None:
        self._close(self.current)

    def span_wrapper(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.count += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def folded_wrapper(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        tracer = self
        clock = self.clock
        stack = self._folded_stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                owner = tracer.current
                if stack:
                    stack[-1][0] += dur
                else:
                    owner.covered += dur
                tally = owner.folded.get(name)
                if tally is None:
                    tally = owner.folded[name] = [0, 0.0, 0]
                tally[0] += 1
                tally[1] += dur - frame[0]
            if count is not None:
                tally[2] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def generator_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tally = tracer.current.folded.setdefault(name, [0, 0.0, 0])
                tally[2] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------
    def install(self, package) -> None:
        """Wrap every target and every check of ``package.verify.ALL_CHECKS``."""
        owners = _binding_owners(package)
        for t in TARGETS:
            module = getattr(package, t.module)
            owner = module
            for part in t.qualname.split(".")[:-1]:
                owner = getattr(owner, part)
            orig = vars(owner)[t.qualname.split(".")[-1]]
            if t.folded:
                wrapper = self.folded_wrapper(t.metric, orig, t.count)
            elif t.generator:
                wrapper = self.generator_wrapper(t.metric, orig)
            else:
                wrapper = self.span_wrapper(t.metric, orig, t.count)
            for holder in owners:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        self._bindings.append((holder, attr, orig))
                        setattr(holder, attr, wrapper)
        checks = package.verify.ALL_CHECKS
        self._checks = (checks, list(checks))
        checks[:] = [self._check_wrapper(fn) for fn in checks]

    def _check_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def traced(n):
            span = tracer._open(VERIFY_SPAN)
            try:
                result = fn(n)
            finally:
                tracer._close(span)
            span.name = f"verify.{result.name}"
            return result

        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for holder, attr, orig in reversed(self._bindings):
            setattr(holder, attr, orig)
        self._bindings.clear()
        if self._checks is not None:
            checks, originals = self._checks
            checks[:] = originals
            self._checks = None

    # -- results --------------------------------------------------------
    def tallies(self) -> Dict[str, List[float]]:
        """name -> [calls, self_s, count, total_s] over every span and folded call.

        ``total_s`` is kept for spans only; folded calls nest in each other.
        """
        out: Dict[str, List[float]] = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            tally = out.setdefault(span.name, [0, 0.0, 0, 0.0])
            tally[0] += 1
            tally[1] += self_s
            tally[2] += span.count
            tally[3] += span.end - span.start
            for name, (calls, fs, count) in span.folded.items():
                tally = out.setdefault(name, [0, 0.0, 0, 0.0])
                tally[0] += calls
                tally[1] += fs
                tally[2] += count
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, with self time and folded tallies."""
        with open(path, "w") as f:
            for span, self_s in zip(self.spans, self_times(self.spans)):
                rec = {
                    "id": span.id,
                    "name": span.name,
                    "op": span.op,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "self_s": self_s,
                }
                if span.folded:
                    rec["folded"] = span.folded
                f.write(json.dumps(rec) + "\n")


def _binding_owners(package) -> List[object]:
    """Every rookq module, and every class defined in one, that may hold a binding."""
    import sys

    prefix = package.__name__
    modules = [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
    owners: List[object] = list(modules)
    for m in modules:
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__ == m.__name__:
                owners.append(value)
    return owners


def layer_metrics(tallies: Dict[str, List[float]], memo: Dict[str, List[int]]) -> Dict[str, float]:
    """Every per-layer metric except ``trace_overhead``, 0 where nothing ran."""

    def get(name, i):
        return tallies.get(name, (0, 0.0, 0, 0.0))[i]

    out: Dict[str, float] = {}
    for name, _unit, _better in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = get(base, 0)
        elif stat == "self_s":
            out[name] = get(base, 1)
        elif stat == "s":
            out[name] = get(base, 3)
        elif stat in ("term_products", "yielded"):
            out[name] = get(base, 2)
        elif name.startswith("memo."):
            hits, misses = memo.get(base[len("memo."):], (0, 0))
            out[name] = hits if stat == "hits" else misses
    candidates = get("shapes.sub_partitions", 2)
    out["shapes.strip_yield"] = get("shapes.gbs_weight_k", 2) / candidates if candidates else 0.0
    out["seminormal.basis_dim"] = get("seminormal.trace", 2)
    return out

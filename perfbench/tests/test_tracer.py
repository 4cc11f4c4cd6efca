import itertools
import json

import rookq
from rookq import characters, exact, shapes, symfunc, verify

import run
from tracer import LAYER_METRICS, Span, Tracer, _binding_owners, self_times


def span(id, parent, start, end, covered=0.0):
    s = Span(id, f"s{id}", 0, parent, start)
    s.end = end
    s.covered = covered
    return s


def test_self_times_on_a_synthetic_call_tree():
    spans = [
        span(0, None, 0.0, 10.0, covered=1.0),  # root: folded calls cover 1.0
        span(1, 0, 1.0, 5.0, covered=0.5),
        span(2, 1, 2.0, 3.0),
        span(3, 1, 2.5, 4.0),  # overlaps span 2: the union [2, 4] is subtracted once
        span(4, 0, 6.0, 9.0),
        span(5, 4, 8.5, 11.0),  # runs past its parent: clipped to [8.5, 9]
    ]
    assert self_times(spans) == [2.0, 1.5, 1.0, 1.5, 2.5, 2.5]


def test_tracer_self_times_add_up_to_the_operation():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.folded_wrapper("exact.leaf", lambda: None)
    nested = tracer.folded_wrapper("exact.nested", lambda: leaf())
    inner = tracer.span_wrapper("inner", lambda: leaf())
    outer = tracer.span_wrapper("outer", lambda: (inner(), nested()))
    tracer.begin_op(0)
    outer()
    tracer.end_op()
    # clock: op 0, outer 1, inner 2, leaf 3-4, inner ends 5,
    # nested 6, leaf 7-8, nested ends 9, outer ends 10, op ends 11
    assert [(s.name, s.start, s.end) for s in tracer.spans] == [
        ("op", 0.0, 11.0), ("outer", 1.0, 10.0), ("inner", 2.0, 5.0)
    ]
    tallies = tracer.tallies()
    assert tallies["inner"][:2] == [1, 2.0]
    assert tallies["outer"][:2] == [1, 3.0]
    assert tallies["op"][:2] == [1, 2.0]
    assert tallies["exact.leaf"][:2] == [2, 2.0]
    assert tallies["exact.nested"][:2] == [1, 2.0]
    assert sum(t[1] for t in tallies.values()) == 11.0


def bindings():
    owners = _binding_owners(rookq)
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_uninstall_restores_every_patched_binding():
    before = bindings()
    checks = list(verify.ALL_CHECKS)
    originals = {
        "mul": vars(exact.LaurentPoly)["__mul__"],
        "add": vars(exact.LaurentPoly)["__add__"],
        "gbs": shapes.gbs_decompose,
        "chi_mn": characters.chi_mn,
    }
    tracer = Tracer()
    tracer.install(rookq)
    try:
        mul = vars(exact.LaurentPoly)["__mul__"]
        assert mul is not originals["mul"]
        assert vars(exact.LaurentPoly)["__rmul__"] is mul  # the class alias
        assert vars(exact.LaurentPoly)["__radd__"] is vars(exact.LaurentPoly)["__add__"]
        assert vars(exact.LaurentPoly)["__add__"] is not originals["add"]
        gbs = shapes.gbs_decompose
        assert gbs is not originals["gbs"]
        # names bound by ``from .shapes import gbs_decompose`` and the package export
        assert characters.gbs_decompose is gbs
        assert symfunc.gbs_decompose is gbs
        assert rookq.gbs_decompose is gbs
        assert characters.chi_mn is not originals["chi_mn"]
        assert rookq.chi_mn is characters.chi_mn
        assert all(a is not b for a, b in zip(verify.ALL_CHECKS, checks))
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert all(a is b for a, b in zip(verify.ALL_CHECKS, checks))
    assert len(verify.ALL_CHECKS) == len(checks)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

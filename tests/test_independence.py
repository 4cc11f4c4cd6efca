"""Routes to one value share no code beyond ``ALLOWED``.

Each route runs under ``sys.setprofile`` from cold memos (a memo hit makes no call).
Two routes of a family may both call a rookq function only if ``ALLOWED`` declares why,
so a new shared helper fails until it is declared.  A new route is one entry in
``FAMILIES``.  hook and two_row stay out of the character family: they share ``div_qm1``
with the oracle by design, and the a/b family covers their two routes.
"""

import functools
import inspect
import itertools
import sys

import pytest

from rookq import bitrace, characters as ch, shapes
from rookq.seminormal import trace_standard_element
from rookq.shapes import partitions_of, partitions_up_to

VALUE_TYPE = "__init__ _make _coerce _result_var zero monomial times_power __add__ __mul__ __neg__".split()
ALLOWED = {
    **{f"exact.LaurentPoly.{name}": "the exact value type, tested alone" for name in VALUE_TYPE},
    "exact.LaurentPoly.is_ordinary": "each route's own check that its value lies in Z[q]",
    "exact._as_int": "the value type's coefficient check",
    "exact.balanced_digits": "decodes an int at q = 2^k, for mn and seminormal by design",
    "shapes._checked": "the one input check of the character routes and the a/b families",
    "bitrace._validate_pair": "the one input check of both bitrace routes",
    "bitrace._validate_composition": "the one input check of both bitrace routes",
    "shapes.sort_to_partition": "sorts a composition's parts",
}
KERNEL = {f"exact.LaurentPoly.{n}" for n in ("__mul__", "__add__", "__sub__", "__pow__")}
KERNEL.add("exact.LaurentPoly.exact_div")

CELLS = [(lam, mu) for w in range(7) for mu in partitions_of(w) for lam in partitions_up_to(w)]
STRIPS = [(lam, nu, k) for lam in partitions_up_to(6) for nu in shapes.sub_partitions(lam)
          if shapes.gbs_decompose(lam, nu) is not None for k in range(1, sum(lam) + 1)]
AB = [(mu, i, j) for mu in partitions_up_to(6) for i in range(7) for j in range(sum(mu) + 1 - i)]
PAIRS = [(mu, nu) for n in range(6) for mu in partitions_of(n) for nu in partitions_of(n)]
# family -> route -> (one call of the route, the arguments it is traced on)
FAMILIES = {
    "characters": {
        "oracle": (ch.chi_oracle, CELLS),
        "iterative": (ch.chi_iterative, CELLS),
        "mn": (ch.chi_mn, CELLS),
        "seminormal": (trace_standard_element, [c for c in CELLS if sum(c[1]) <= 5]),
        # mn's strip weights by mn-adjoint-identity's second derivation, on each strip to 6
        "strip weights": (shapes.gbs_weight_k, STRIPS),
    },
    "ab": {
        "tables": (lambda *key: (ch.a_poly(*key), ch.b_poly(*key)), AB),
        "direct": (lambda *key: (ch.a_poly_direct(*key), ch.b_poly_direct(*key)), AB),
    },
    "bitrace": {"btr_def": (bitrace.btr_def, PAIRS), "btr_matrix": (bitrace.btr_matrix, PAIRS)},
}


def code_names():
    """code object -> ``module.Qualname`` of each function in a rookq module or class; nested
    and anonymous code is not found.  (``co_qualname`` would do, but only from Python 3.11.)"""
    names = {}
    for modname, module in list(sys.modules.items()):
        values = list(vars(module).values()) if modname.startswith("rookq.") else []
        values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
        for value in values:
            fn = inspect.unwrap(getattr(value, "__func__", getattr(value, "fget", value)))
            if hasattr(fn, "__code__") and str(fn.__module__).startswith("rookq."):
                names[fn.__code__] = f"{fn.__module__[len('rookq.'):]}.{fn.__qualname__}"
    return names


@functools.cache
def traced(clear_memos):
    """family -> route -> the names of the rookq functions it calls, from cold memos."""
    names, out = code_names(), {family: {} for family in FAMILIES}
    for family, routes in FAMILIES.items():
        for route, (run, inputs) in routes.items():
            codes = set()
            clear_memos()
            previous = sys.getprofile()
            sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
            try:
                for args in inputs:
                    run(*args)
            finally:
                sys.setprofile(previous)
            out[family][route] = {names[code] for code in codes if code in names}
    return out


@pytest.mark.parametrize("family", FAMILIES)
def test_routes_share_only_allowed(family, clear_memos):
    routes = traced(clear_memos)[family]
    for (one, mine), (other, theirs) in itertools.combinations(routes.items(), 2):
        shared = sorted((mine & theirs) - ALLOWED.keys())
        assert not shared, f"{one} and {other} both call {shared}"


def test_allowed_holds_only_what_routes_share(clear_memos):
    families = traced(clear_memos).values()
    pairs = [p for routes in families for p in itertools.combinations(routes.values(), 2)]
    assert sorted(ALLOWED.keys() - set().union(*(a & b for a, b in pairs))) == []


def test_power_sums_only_in_the_oracle_and_ints_in_mn_and_the_matrix_route(clear_memos):
    calls = {r: names for routes in traced(clear_memos).values() for r, names in routes.items()}
    assert [sorted(calls[route] & KERNEL) for route in ("mn", "btr_matrix")] == [[], []]
    engine = {r for r, names in calls.items() if any(n.startswith("symfunc.") for n in names)}
    assert engine == {"oracle"}
    assert "symfunc.inner_product" not in calls["oracle"]


def test_every_character_method_is_traced():
    assert set(ch.METHODS) - {"hook", "two_row"} <= FAMILIES["characters"].keys()

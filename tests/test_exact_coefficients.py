"""Differential test of LaurentPoly's int/Fraction coefficients.

Every operation is checked against a plain dict-of-Fraction reference, keyed
by exponent, and every result must store ``int`` for an integral
coefficient, ``Fraction`` otherwise, and never a ``float``.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rookq.errors import NonExactDivision
from rookq.exact import LaurentPoly, RationalFunction

coeffs = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
)
term_dicts = st.dictionaries(st.integers(-3, 5), coeffs, max_size=5)
nonzero_term_dicts = term_dicts.filter(lambda d: any(d.values()))


def ref(d):
    return {h: Fraction(c) for h, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for h, c in b.items():
        out[h] = out.get(h, Fraction(0)) + c
    return {h: c for h, c in out.items() if c}


def ref_neg(a):
    return {h: -c for h, c in a.items()}


def ref_mul(a, b):
    out = {}
    for h1, c1 in a.items():
        for h2, c2 in b.items():
            out[h1 + h2] = out.get(h1 + h2, Fraction(0)) + c1 * c2
    return {h: c for h, c in out.items() if c}


def ref_divmod(a, b):
    """Long division of Laurent dicts after shifting both to exponent 0."""
    ma, mb = min(a, default=0), min(b)
    rem = {h - ma: c for h, c in a.items()}
    b = {h - mb: c for h, c in b.items()}
    db = max(b)
    quot = {}
    while rem and max(rem) >= db:
        da = max(rem)
        f = rem[da] / b[db]
        quot[da - db] = f
        rem = ref_add(rem, {h + da - db: -f * c for h, c in b.items()})
    return {h + ma - mb: c for h, c in quot.items()}, rem


def poly(d):
    return LaurentPoly("q", d)


def terms(p):
    return dict(p.items())


def assert_coefficient_rule(p):
    for _, c in p.items():
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


def assert_matches(p, reference):
    assert terms(p) == reference
    assert_coefficient_rule(p)
    # a build from raw Fractions, integral ones included, must be indistinguishable
    raw = LaurentPoly._make("q", dict(reference))
    assert str(p) == str(raw) == str(poly(reference))
    assert p == raw and hash(p) == hash(raw)
    assert p.terms_json() == raw.terms_json()


@given(term_dicts)
def test_construction_folds_integral_fractions(a):
    assert_matches(poly(a), ref(a))


@given(term_dicts, term_dicts)
def test_add_sub_mul(a, b):
    pa, pb = poly(a), poly(b)
    ra, rb = ref(a), ref(b)
    assert_matches(pa + pb, ref_add(ra, rb))
    assert_matches(pa - pb, ref_add(ra, ref_neg(rb)))
    assert_matches(pa * pb, ref_mul(ra, rb))


@given(term_dicts, nonzero_term_dicts)
def test_exact_div(a, b):
    ra, rb = ref(a), ref(b)
    quot, rem = ref_divmod(ra, rb)
    if rem:
        with pytest.raises(NonExactDivision):
            poly(a).exact_div(poly(b))
    else:
        assert_matches(poly(a).exact_div(poly(b)), quot)
    assert_matches((poly(a) * poly(b)).exact_div(poly(b)), ra)


@given(term_dicts, nonzero_term_dicts)
def test_rational_function(a, b):
    rf = RationalFunction(poly(a), poly(b))
    # same value: num * b == den * a
    assert ref_mul(terms(rf.num), ref(b)) == ref_mul(terms(rf.den), ref(a))
    for p in (rf.num, rf.den):
        assert_coefficient_rule(p)
    den = terms(rf.den)
    assert min(den) == 0 and den[max(den)] == 1
    # the canonical form does not depend on how the coefficients were built
    raw = RationalFunction(LaurentPoly._make("q", ref(a)), LaurentPoly._make("q", ref(b)))
    assert str(rf) == str(raw) and rf == raw and hash(rf) == hash(raw)


def test_float_rejected():
    with pytest.raises(TypeError):
        LaurentPoly("q", {0: 0.5})
    with pytest.raises(TypeError):
        LaurentPoly.monomial("q", 1).scale(2.0)
    # a non-integral exponent is refused, not truncated
    with pytest.raises(TypeError):
        LaurentPoly("q", {1.5: 1})


# ----------------------------------------------------------------------
# LaurentPoly.sum_of_products against a fold of __mul__ and __add__
# ----------------------------------------------------------------------
def poly_fields(p):
    return p.var, p._terms, [type(c) for _, c in p.items()]


@st.composite
def product_lists(draw):
    """Pairs of q polynomials, Fraction and negative-exponent terms included; some
    lists repeat each pair with its sign flipped, so that the sum cancels."""
    pairs = draw(st.lists(st.tuples(term_dicts, term_dicts), max_size=4))
    pairs = [(poly(a), poly(b)) for a, b in pairs]
    if draw(st.booleans()):
        pairs += [(a, -b) for a, b in reversed(pairs)]
    return pairs


@given(product_lists())
def test_sum_of_products_matches_fold(pairs):
    want = LaurentPoly.zero("q")
    for a, b in pairs:
        want = want + a * b
    got = LaurentPoly.sum_of_products(iter(pairs))
    assert poly_fields(got) == poly_fields(want)
    assert_coefficient_rule(got)


def test_sum_of_products_edge_cases():
    frac_q = LaurentPoly.monomial("q", 1, Fraction(1, 2))
    cancel = [(frac_q, frac_q), (-frac_q, frac_q)]
    assert poly_fields(LaurentPoly.sum_of_products(cancel)) == ("q", {}, [])
    assert poly_fields(LaurentPoly.sum_of_products([])) == ("q", {}, [])
    # a constant adopts the other tag, as in the fold
    t = LaurentPoly.monomial("t", 1)
    three = LaurentPoly.const(3, "q")
    fold = LaurentPoly.zero("q") + three * t
    got = LaurentPoly.sum_of_products([(three, t)])
    assert poly_fields(got) == poly_fields(fold) == ("t", {1: 3}, [int])
    with pytest.raises(ValueError):
        LaurentPoly.sum_of_products([(t, LaurentPoly.monomial("q", 1) + 1)])
    # a t product after a non-constant q sum raises, as __add__ does
    with pytest.raises(ValueError):
        LaurentPoly.sum_of_products([(frac_q, frac_q), (three, t)])

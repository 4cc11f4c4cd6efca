"""Differential test of LaurentPoly's integer coefficients and text form.

Every operation is checked against a plain dict-of-int reference, keyed by
exponent, and every result must store plain ``int`` coefficients and print
the canonical string built from the reference.  Long division in the
reference runs over Q, so that a quotient outside Z[q] shows as a
non-integral coefficient, which ``exact_div`` must refuse.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rookq.errors import NonExactDivision
from rookq.exact import LaurentPoly, RationalFunction, balanced_digits

coeffs = st.integers(-30, 30)
term_dicts = st.dictionaries(st.integers(-3, 5), coeffs, max_size=5)
nonzero_term_dicts = term_dicts.filter(lambda d: any(d.values()))
tags = st.sampled_from("qt")


def ref(d):
    return {h: c for h, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for h, c in b.items():
        out[h] = out.get(h, 0) + c
    return {h: c for h, c in out.items() if c}


def ref_neg(a):
    return {h: -c for h, c in a.items()}


def ref_mul(a, b):
    out = {}
    for h1, c1 in a.items():
        for h2, c2 in b.items():
            out[h1 + h2] = out.get(h1 + h2, 0) + c1 * c2
    return {h: c for h, c in out.items() if c}


def ref_divmod(a, b):
    """Long division over Q of Laurent dicts after shifting both to exponent 0."""
    ma, mb = min(a, default=0), min(b)
    rem = {h - ma: c for h, c in a.items()}
    b = {h - mb: c for h, c in b.items()}
    db = max(b)
    quot = {}
    while rem and max(rem) >= db:
        da = max(rem)
        f = Fraction(rem[da], b[db])
        quot[da - db] = f
        rem = ref_add(rem, {h + da - db: -f * c for h, c in b.items()})
    return {h + ma - mb: c for h, c in quot.items()}, rem


def ref_str(d, var):
    """The canonical string, term by term: exponents descending, a leading
    ``-`` or `` + ``/`` - `` between terms, the coefficient 1 left out unless
    the exponent is 0, and ``^e`` only for e != 1."""
    out = ""
    for h in sorted(d, reverse=True):
        c = d[h]
        out += (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
        v = var if h == 1 else f"{var}^{h}"
        out += str(abs(c)) if h == 0 else v if abs(c) == 1 else f"{abs(c)}*{v}"
    return out or "0"


def poly(d, var="q"):
    return LaurentPoly(var, d)


def terms(p):
    return dict(p.items())


def assert_coefficient_rule(p):
    for _, c in p.items():
        assert type(c) is int, repr(c)


def assert_matches(p, reference):
    assert terms(p) == reference
    assert_coefficient_rule(p)
    assert str(p) == ref_str(reference, p.var)
    # a build that skips the constructor's checks must be indistinguishable
    raw = LaurentPoly._make(p.var, dict(reference))
    assert str(p) == str(raw) == str(poly(reference, p.var))
    assert p == raw and hash(p) == hash(raw)
    assert p.terms_json() == raw.terms_json()


@given(term_dicts, tags)
def test_construction_matches_the_reference(a, var):
    assert_matches(poly(a, var), ref(a))


def test_distinct_polynomials_print_distinct_strings():
    """``str`` is lossless without a reader: over every dict on a few
    exponents and coefficients, chosen so that digits and signs of
    coefficients and exponents could run together, no two strings coincide."""
    exps = (-10, -1, 0, 1, 10)
    for var in "qt":
        seen = {}
        for cs in itertools.product((-11, -1, 0, 1, 2, 11), repeat=len(exps)):
            d = ref(dict(zip(exps, cs)))
            text = str(poly(d, var))
            assert seen.setdefault(text, d) == d, (text, seen[text], d)


@given(term_dicts, term_dicts, tags)
def test_add_sub_mul(a, b, var):
    pa, pb = poly(a, var), poly(b, var)
    ra, rb = ref(a), ref(b)
    assert (str(pa) == str(pb)) == (ra == rb)
    assert_matches(pa + pb, ref_add(ra, rb))
    assert_matches(pa - pb, ref_add(ra, ref_neg(rb)))
    assert_matches(pa * pb, ref_mul(ra, rb))


def ref_is_const(d):
    return set(d) <= {0}


@given(term_dicts, tags, term_dicts, tags)
def test_add_sub_mul_across_tags(a, var_a, b, var_b):
    """Tags drawn independently: a constant adopts the other tag (the right
    operand's, when both are constants), and two non-constants of different
    tags raise ValueError."""
    pa, pb = poly(a, var_a), poly(b, var_b)
    ra, rb = ref(a), ref(b)
    if var_a == var_b or ref_is_const(ra) or ref_is_const(rb):
        var = var_b if ref_is_const(ra) else var_a
        for got, want in ((pa + pb, ref_add(ra, rb)), (pa - pb, ref_add(ra, ref_neg(rb))),
                          (pa * pb, ref_mul(ra, rb))):
            assert got.var == var
            assert_matches(got, want)
    else:
        for op in (lambda: pa + pb, lambda: pa - pb, lambda: pa * pb):
            with pytest.raises(ValueError):
                op()


@given(term_dicts, tags, st.integers(-30, 30))
@example({}, "t", 0)
@example({2: 3, -1: -1}, "t", 0)
def test_int_operands(a, var, k):
    pa, ra = poly(a, var), ref(a)
    for got, want in ((pa * k, ref_mul(ra, ref({0: k}))), (k * pa, ref_mul(ra, ref({0: k}))),
                      (pa + k, ref_add(ra, ref({0: k}))), (pa - k, ref_add(ra, ref({0: -k}))),
                      (k - pa, ref_add(ref_neg(ra), ref({0: k})))):
        assert got.var == var
        assert_matches(got, want)


@given(term_dicts, tags)
@example({}, "t")
@example({3: -2}, "t")
@example({0: 1}, "q")
def test_pow(a, var):
    pa, want = poly(a, var), {0: 1}
    for n in range(6):
        got = pa**n
        assert got.var == var
        assert_matches(got, want)
        want = ref_mul(want, ref(a))


def test_pow_refuses_negative_and_non_integer_exponents():
    q = LaurentPoly.monomial("q", 1)
    for bad in (-1, 1.5):
        with pytest.raises(ValueError):
            q**bad


@given(term_dicts, nonzero_term_dicts)
def test_exact_div(a, b):
    ra, rb = ref(a), ref(b)
    quot, rem = ref_divmod(ra, rb)
    if rem or any(c.denominator != 1 for c in quot.values()):
        with pytest.raises(NonExactDivision):
            poly(a).exact_div(poly(b))
    else:
        assert_matches(poly(a).exact_div(poly(b)), {h: int(c) for h, c in quot.items()})
    assert_matches((poly(a) * poly(b)).exact_div(poly(b)), ra)


@given(term_dicts, nonzero_term_dicts)
def test_rational_function(a, b):
    rf = RationalFunction(poly(a), poly(b))
    # same value: num * b == den * a
    assert ref_mul(terms(rf.num), ref(b)) == ref_mul(terms(rf.den), ref(a))
    for p in (rf.num, rf.den):
        assert_coefficient_rule(p)
    den = terms(rf.den)
    assert min(den) == 0 and den[max(den)] > 0
    # no common factor: a second normalisation changes nothing, and the
    # integer contents of numerator and denominator are coprime
    again = RationalFunction(rf.num, rf.den)
    assert str(again) == str(rf) and again == rf and hash(again) == hash(rf)
    assert math.gcd(*terms(rf.num).values(), *den.values()) == 1


def test_float_rejected():
    """Only integers are coefficients: a Fraction, even an integral one, or a
    float is refused by every entry point that takes a scalar."""
    q = LaurentPoly.monomial("q", 1)
    for bad in (Fraction(1, 2), Fraction(4, 2), 0.5, 2.0):
        for build in (
            lambda: LaurentPoly("q", {0: bad}),
            lambda: LaurentPoly.const(bad),
            lambda: LaurentPoly.monomial("q", 2, bad),
            lambda: q + bad,
            lambda: bad + q,
            lambda: q - bad,
            lambda: bad - q,
            lambda: q * bad,
            lambda: bad * q,
            lambda: q == bad,
            lambda: q.exact_div(bad),
            lambda: q.evaluate(bad),
        ):
            with pytest.raises(TypeError):
                build()
    # a non-integral exponent is refused, not truncated
    with pytest.raises(TypeError):
        LaurentPoly("q", {1.5: 1})


# ----------------------------------------------------------------------
# balanced_digits, the decoder of the values chi_mn and the seminormal
# traces take at q = 2^k
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [2, 8, 32])
@given(data=st.data())
def test_balanced_digits_round_trip(k, data):
    # every coefficient below 2^(k-1) in size; the value at 2^k by shifts
    bound = 2 ** (k - 1) - 1
    d = data.draw(st.dictionaries(st.integers(0, 12), st.integers(-bound, bound), max_size=8))
    value = sum(c << (k * h) for h, c in d.items())
    got = balanced_digits(value, k)
    assert got.var == "q"
    assert_matches(got, ref(d))
    assert_matches(balanced_digits(-value, k), ref_neg(ref(d)))


@pytest.mark.parametrize("k", [2, 8, 32])
def test_balanced_digits_of_zero(k):
    zero = balanced_digits(0, k)
    assert zero.var == "q"
    assert_matches(zero, {})

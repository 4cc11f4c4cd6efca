import random

import pytest

from rookq.errors import DivisionByZero, DomainError, NonExactDivision
from rookq.exact import LaurentPoly, RationalFunction

Q = LaurentPoly.monomial("q", 1)
T = LaurentPoly.monomial("t", 1)


def qpoly(d):
    return LaurentPoly("q", d)


def rand_poly(rng, var="q"):
    return LaurentPoly(
        var,
        {rng.randint(-4, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))},
    )


class TestExactDiv:
    def test_factorization(self):
        assert (Q**2 - 1).exact_div(Q - 1) == Q + 1

    def test_round_trip(self):
        f = qpoly({2: 2, 1: -8, 0: 2})
        prod = (Q - 1) * f
        assert prod == qpoly({3: 2, 2: -10, 1: 10, 0: -2})
        assert prod.exact_div(Q - 1) == f

    def test_nonzero_remainder(self):
        with pytest.raises(NonExactDivision):
            (Q**2 + 1).exact_div(Q - 1)

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            Q.exact_div(LaurentPoly.zero("q"))

    def test_laurent_quotient(self):
        # monomials are units of the Laurent ring; integers other than +-1 are not
        assert (Q * 3).exact_div(Q**2 * 3) == LaurentPoly.monomial("q", -1)
        assert (Q * 6).exact_div(-(Q**2) * 3) == LaurentPoly.monomial("q", -1, -2)
        with pytest.raises(NonExactDivision):
            Q.exact_div(3 * Q**2)

    def test_variable_tags(self):
        # tags combine as in *: a constant of either tag divides, two
        # different variables do not
        t = LaurentPoly.monomial("t", 1)
        with pytest.raises(ValueError):
            t.exact_div(Q)
        with pytest.raises(ValueError):
            (t * t).exact_div(Q)
        with pytest.raises(ValueError):
            t * Q
        assert (t * 2).exact_div(LaurentPoly.const(2, "q")) == t
        assert LaurentPoly.const(4, "t").exact_div(Q * 2) == LaurentPoly.monomial("q", -1, 2)
        assert (t * t).exact_div(t) == t


class TestSubstituteInverse:
    def test_examples(self):
        assert (1 - T).substitute_inverse() == 1 - LaurentPoly.monomial("q", -1)
        assert (T**3).substitute_inverse() == LaurentPoly.monomial("q", -3)
        assert LaurentPoly.zero("t").substitute_inverse() == LaurentPoly.zero("q")

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(50):
            f = rand_poly(rng, "t")
            assert f.substitute_inverse().substitute_inverse() == f

    def test_s_rejected(self):
        # q and t are the only variable tags
        with pytest.raises(ValueError):
            LaurentPoly("s", {1: 1})


class TestEvaluate:
    def test_root_at_one(self):
        assert qpoly({3: 2, 2: -10, 1: 10, 0: -2}).evaluate(1) == 0

    def test_monomial(self):
        mu = (4, 1)
        f = LaurentPoly.monomial("q", sum(mu) - len(mu))
        assert f.evaluate(2) == 8

    def test_zero_with_negative_exponent(self):
        with pytest.raises(DomainError):
            LaurentPoly.monomial("q", -1).evaluate(0)
        # the value is an int, so a negative exponent is refused at any point
        with pytest.raises(DomainError):
            (Q + LaurentPoly.monomial("q", -1)).evaluate(2)
        assert type(qpoly({2: 3, 0: -1}).evaluate(-2)) is int


class TestRationalFunction:
    def test_cancellation(self):
        rf = RationalFunction(Q**2 - 1, Q - 1)
        assert rf.is_polynomial() and rf.num == Q + 1 and rf.den == LaurentPoly.one("q")

    def test_zero_numerator(self):
        rf = RationalFunction(LaurentPoly.zero("q"), Q**3)
        assert rf.num.is_zero and rf.den == LaurentPoly.one("q")

    def test_repeated_factor(self):
        rf = RationalFunction((Q - 1) ** 2, Q - 1)
        assert rf.num == Q - 1 and rf.den == LaurentPoly.one("q")

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            RationalFunction(Q, LaurentPoly.zero("q"))

    def test_canonical_form_over_z(self):
        cases = [
            # the common factor 2q+2 includes the content 2
            (2 * Q + 2, 4 * Q + 4, LaurentPoly.one("q"), LaurentPoly.const(2, "q"), "(1)/(2)"),
            # the denominator's leading coefficient is made positive
            (Q, -Q - 1, -Q, Q + 1, "(-q)/(q + 1)"),
            # q leaves the denominator, the content 2 cancels
            (6 * Q**2, 4 * Q, 3 * Q, LaurentPoly.const(2, "q"), "(3*q)/(2)"),
        ]
        for num, den, want_num, want_den, text in cases:
            rf = RationalFunction(num, den)
            assert rf.num == want_num and rf.den == want_den, text
            assert not rf.is_polynomial() and str(rf) == text

    def test_common_factor_invariance(self):
        rng = random.Random(17)
        for _ in range(40):
            a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            if b.is_zero or c.is_zero:
                continue
            assert RationalFunction(a * c, b * c) == RationalFunction(a, b)

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            if b.is_zero:
                continue
            rf = RationalFunction(a, b)
            assert RationalFunction(rf.num, rf.den) == rf


class TestRingAxioms:
    def test_random_operands(self):
        rng = random.Random(101)
        for _ in range(80):
            a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            if not b.is_zero:
                assert (a * b).exact_div(b) == a


class TestEqualityAndHash:
    def test_equal_constants_hash_equal(self):
        # a constant equals the same constant under the other tag and as a number
        pairs = [
            (LaurentPoly.one("q"), LaurentPoly.one("t")),
            (LaurentPoly.zero("q"), LaurentPoly.zero("t")),
            (LaurentPoly.one("q"), 1),
            (LaurentPoly.const(-2, "t"), -2),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), (a, b)
            assert len({a, b}) == 1, (a, b)
        # a nonconstant polynomial keeps its tag
        assert Q != T and len({Q, T, Q + 0}) == 2


class TestTextForms:
    def test_canonical_string(self):
        assert str(qpoly({3: 2, 2: -10, 1: 10, 0: -2})) == "2*q^3 - 10*q^2 + 10*q - 2"
        assert str(LaurentPoly.zero("q")) == "0"
        assert str(Q + 1) == "q + 1"
        assert str(-(Q**3) + Q**2) == "-q^3 + q^2"
        assert str(LaurentPoly.monomial("q", -1)) == "q^-1"
        assert str(qpoly({2: 4, -1: -1, -3: 5})) == "4*q^2 - q^-1 + 5*q^-3"
        assert str(qpoly({1: 3})) == "3*q"

    def test_parse_round_trip(self):
        rng = random.Random(41)
        samples = [rand_poly(rng) for _ in range(40)]
        samples.append(qpoly({2: 4, -1: -1, -3: 5}))
        samples.append(LaurentPoly.zero("q"))
        for f in samples:
            assert LaurentPoly.parse(str(f), "q") == f

    def test_parse_refuses_fractions(self):
        for text in ("1/2*q", "q + 3/4", "2/1"):
            with pytest.raises(ValueError):
                LaurentPoly.parse(text)

    def test_terms_json(self):
        f = qpoly({2: 3, 0: -1})
        assert f.terms_json() == [[2, 3, 1], [0, -1, 1]]

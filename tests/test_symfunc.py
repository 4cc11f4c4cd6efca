import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rookq import verify
from rookq.characters import chi_oracle
from rookq.errors import NonExactDivision, WeightMismatch
from rookq.exact import LaurentPoly
from rookq.shapes import (
    gbs_complements,
    gbs_decompose,
    partitions_of,
    partitions_up_to,
    z_lambda,
)
from rookq.symfunc import (
    PExpansion,
    adjoint_apply,
    classical_char,
    combination,
    hn_expansion,
    inner_product,
    qhat_expansion,
    qhat_mu,
    q_mu,
    qn_expansion,
    schur_in_p,
)

T = LaurentPoly.monomial("t", 1)


def perm_sign(perm):
    sign = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def schur_jacobi_trudi(lam):
    """Independent Schur expansion: det(h_{lam_i - i + j}) over permutations."""
    l = len(lam)
    if l == 0:
        return PExpansion.one()
    total = PExpansion.zero()
    for perm in itertools.permutations(range(l)):
        prod = PExpansion.one()
        for i in range(l):
            k = lam[i] - (i + 1) + (perm[i] + 1)
            if k < 0:
                prod = PExpansion.zero()
                break
            prod = prod * hn_expansion(k)
        total = total + prod.scale(perm_sign(perm))
    return total


class TestPMul:
    def test_merge(self):
        assert PExpansion.p((2,)) * PExpansion.p((1,)) == PExpansion.p((2, 1))

    def test_modified_square(self):
        f = PExpansion({(): 1, (1,): 1})
        assert f * f == PExpansion({(): 1, (1,): 2, (1, 1): 1})

    def test_unit(self):
        f = PExpansion({(2, 1): 6, (): 1}, 2)
        assert f * PExpansion.one() == f


class TestHallLittlewood:
    def test_qn_base(self):
        assert qn_expansion(0) == PExpansion.one()
        assert qn_expansion(1) == PExpansion({(1,): 1 - T})

    def test_qn_two(self):
        expected = PExpansion({(2,): 1 - T**2, (1, 1): (1 - T) ** 2}, 2)
        assert qn_expansion(2) == expected

    def test_qhat_one(self):
        assert qhat_expansion(1) == PExpansion({(): 1 - T, (1,): 1 - T})

    def test_qhat_empty(self):
        assert qhat_mu(()) == PExpansion.one()

    def test_qhat_mu_denominator_divides_d_mu(self):
        # z_lambda divides n! for every lambda |- n, so D_mu * q-hat_mu lies
        # over Z[t], D_mu = prod_i mu_i!
        for w in range(8):
            for mu in partitions_of(w):
                assert math.prod(math.factorial(part) for part in mu) % qhat_mu(mu).den == 0

    def test_oracle_reads_the_checked_memo(self, clear_memos):
        # the oracle pairs the same q-hat_mu that qhat-lemma compares
        assert verify.check_qhat_lemma(4).ok
        before = qhat_mu.cache_info()
        for mu in partitions_of(4):
            for lam in partitions_up_to(4):
                chi_oracle(lam, mu)
        after = qhat_mu.cache_info()
        assert after.hits > before.hits and after.misses == before.misses

    def test_lemma_single_row(self):
        # q-hat_n = q_n + (1-t) sum_{i=1}^{n} q_{n-i}
        for n in range(9):
            rhs = qn_expansion(n)
            for i in range(1, n + 1):
                rhs = rhs + qn_expansion(n - i).scale(1 - T)
            assert qhat_expansion(n) == rhs


@functools.lru_cache(maxsize=None)
def strip_walk_char(lam, rho):
    """Reference classical character: walk the border strips of lam itself.

    Removes each single border strip of rho_1 cells, found among the
    generalized border strips, with sign (-1)^(rows - 1), plus the skip
    branch that the q -> 1 limit adds when |lam| < |rho|.
    """
    if not rho:
        return 1 if not lam else 0
    if sum(lam) > sum(rho):
        return 0
    rest = rho[1:]
    total = strip_walk_char(lam, rest)
    for nu, _ in gbs_complements(lam, rho[0], rho[0]):
        comps = gbs_decompose(lam, nu)
        if len(comps) == 1:
            total += (-1) ** (comps[0][1] - 1) * strip_walk_char(nu, rest)
    return total


class TestClassicalChars:
    def test_beta_numbers_match_the_strip_walk(self):
        for w in range(9):
            for rho in partitions_of(w):
                for lam in partitions_up_to(w):
                    assert classical_char(lam, rho) == strip_walk_char(lam, rho), (lam, rho)

    def test_trivial_character(self):
        for n in range(1, 7):
            for rho in partitions_of(n):
                assert classical_char((n,), rho) == 1

    def test_dimension(self):
        assert classical_char((2, 1), (1, 1, 1)) == 2

    def test_weight_deficit_value(self):
        assert classical_char((3, 1, 1), (3, 2, 1)) == 0

    def test_overweight_raises(self):
        with pytest.raises(WeightMismatch):
            classical_char((3, 2, 1), (3, 1, 1))

    def test_against_jacobi_trudi(self):
        for n in range(6):
            for lam in partitions_of(n):
                f = schur_jacobi_trudi(lam)
                jt = dict(f.terms())
                for rho in partitions_of(n):
                    expected = jt.get(rho, LaurentPoly.zero("t")).scale(z_lambda(rho))
                    assert expected == LaurentPoly.const(classical_char(lam, rho) * f.den, "t")

    def test_first_orthogonality(self):
        for n in range(7):
            parts = partitions_of(n)
            table = {(lam, rho): classical_char(lam, rho) for lam in parts for rho in parts}
            for lam in parts:
                for nu in parts:
                    s = sum(
                        Fraction(table[(lam, rho)] * table[(nu, rho)], z_lambda(rho))
                        for rho in parts
                    )
                    assert s == (1 if lam == nu else 0)

    def test_table_identity_column(self):
        from rookq.shapes import f_lambda

        for n in range(7):
            parts = partitions_of(n)
            table = {(lam, rho): classical_char(lam, rho) for lam in parts for rho in parts}
            for lam in parts:
                assert table[(lam, (1,) * n)] == f_lambda(lam)


class TestSchur:
    def test_small(self):
        assert schur_in_p((1,)) == PExpansion.p((1,))
        assert schur_in_p((2,)) == PExpansion({(2,): 1, (1, 1): 1}, 2)
        assert schur_in_p((1, 1)) == PExpansion({(2,): -1, (1, 1): 1}, 2)


class TestInnerProduct:
    def test_power_sum_norm(self):
        assert inner_product(PExpansion.p((2,)), PExpansion.p((2,))) == LaurentPoly.const(2, "t")

    def test_unit(self):
        assert inner_product(PExpansion.one(), PExpansion.one()) == LaurentPoly.one("t")

    def test_cross_weight_vanishes(self):
        assert inner_product(PExpansion.p((2,)), PExpansion.p((1, 1))).is_zero


class TestAdjoint:
    def test_derivative(self):
        assert adjoint_apply(PExpansion.p((1,)), PExpansion.p((1, 1))) == PExpansion({(1,): 2})

    def test_annihilates(self):
        assert adjoint_apply(PExpansion.p((2,)), PExpansion.p((1, 1))).is_zero

    def test_duality(self):
        rng = random.Random(2)
        pool = [lam for w in range(7) for lam in partitions_of(w)]
        for _ in range(40):
            u = PExpansion({rng.choice(pool): rng.randint(1, 4)})
            v = PExpansion({rng.choice(pool): rng.randint(1, 4)})
            k = rng.randint(1, 6)
            g = PExpansion.p((k,))
            assert inner_product(g * u, v) == inner_product(u, adjoint_apply(g, v))


class TestHn:
    def test_small(self):
        assert hn_expansion(0) == PExpansion.one()
        assert hn_expansion(1) == PExpansion.p((1,))
        assert hn_expansion(2) == PExpansion({(2,): 1, (1, 1): 1}, 2)


numerators = st.one_of(
    st.integers(-5, 5),
    st.lists(st.integers(-6, 6), max_size=3).map(lambda cs: LaurentPoly("t", dict(enumerate(cs, -1)))),
)
expansions = st.builds(
    PExpansion,
    st.dictionaries(
        st.sampled_from([lam for w in range(5) for lam in partitions_of(w)]), numerators, max_size=4
    ),
    st.integers(1, 12),
)


def assert_canonical(f):
    """Integer coefficients over a positive denominator, in lowest terms, which
    the constructor takes back unchanged."""
    ints = [c for _, p in f.terms() for _, c in p.items()]
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int for c in ints)
    assert math.gcd(f.den, *ints) == 1
    g = PExpansion(dict(f.terms()), f.den)
    assert g == f and hash(g) == hash(f)


def rational_terms(f):
    """{rho: {exponent: Fraction}}, the coefficients of f as rational values."""
    return {rho: {h: Fraction(v, f.den) for h, v in c.items()} for rho, c in f.terms()}


def rational_inner_product(f, g):
    """<f, g> summed over the rational coefficients, term by term, as
    {exponent: Fraction}."""
    total = {}
    gc = rational_terms(g)
    for rho, c in rational_terms(f).items():
        for h1, v1 in c.items():
            for h2, v2 in gc.get(rho, {}).items():
                total[h1 + h2] = total.get(h1 + h2, 0) + v1 * v2 * z_lambda(rho)
    return {h: v for h, v in total.items() if v}


class TestCommonDenominator:
    @given(expansions, expansions, numerators)
    def test_operations_stay_in_lowest_terms(self, f, g, c):
        total = f + g
        fc, gc = rational_terms(f), rational_terms(g)
        sums = {}
        for rho in fc.keys() | gc.keys():
            a, b = fc.get(rho, {}), gc.get(rho, {})
            if s := {h: v for h in a.keys() | b.keys() if (v := a.get(h, 0) + b.get(h, 0))}:
                sums[rho] = s
        assert rational_terms(total) == sums
        for h in (f, total, f * g, f.scale(c), adjoint_apply(f, g)):
            assert_canonical(h)
            # the pairing divides once, exactly: a value outside Z[t] raises
            want = rational_inner_product(h, g)
            if all(v.denominator == 1 for v in want.values()):
                assert dict(inner_product(h, g).items()) == want
            else:
                with pytest.raises(NonExactDivision):
                    inner_product(h, g)

    @given(st.lists(st.tuples(numerators, expansions), max_size=4))
    def test_combination_is_the_fold_of_add_and_scale(self, pairs):
        # against the fold and against the sum of the rational coefficients;
        # each pair also enters negated, so the doubled sum cancels to zero
        fold = PExpansion.zero()
        want = {}
        for c, f in pairs:
            fold = fold + f.scale(c)
            c = c.items() if isinstance(c, LaurentPoly) else [(0, c)]
            for rho, terms in rational_terms(f).items():
                acc = want.setdefault(rho, {})
                for (h1, v1), (h2, v2) in itertools.product(c, terms.items()):
                    acc[h1 + h2] = acc.get(h1 + h2, 0) + v1 * v2
        want = {rho: t for rho, acc in want.items() if (t := {h: v for h, v in acc.items() if v})}
        total = combination(pairs)
        assert total == fold and hash(total) == hash(fold)
        assert rational_terms(total) == want
        assert_canonical(total)
        cancelled = combination(pairs + [(c, f.scale(-1)) for c, f in pairs])
        assert cancelled == PExpansion.zero() and cancelled.den == 1
        assert combination([]) == PExpansion.zero()

    def test_constructor_takes_numerators_over_den(self):
        assert PExpansion({(1,): 4, (): 2}, 6) == PExpansion({(1,): 2, (): 1}, 3)
        assert PExpansion({(1,): LaurentPoly.const(3, "q")}) == PExpansion({(1,): 3})
        assert PExpansion({(1,): 0}, 5) == PExpansion.zero() and PExpansion.zero().den == 1
        f = PExpansion.p((2,))
        for bad in (Fraction(1, 2), Fraction(2), 0.5, 2.0):
            with pytest.raises(TypeError):
                PExpansion({(1,): bad})
            with pytest.raises(TypeError):
                f.scale(bad)
        for den in (0, -3, 2.0, Fraction(1, 2), Fraction(2), "2", None):
            with pytest.raises(ValueError, match="den must be a positive int"):
                PExpansion({(1,): 1}, den)

    def test_engine_stores_integer_coefficients(self):
        # a Fraction stored in a PExpansion coefficient would undo the common
        # denominator; every memoised expansion up to weight 6 is checked
        built = [f(n) for n in range(7) for f in (hn_expansion, qn_expansion, qhat_expansion)]
        for lam in partitions_up_to(6):
            built += [qhat_mu(lam), q_mu(lam), schur_in_p(lam)]
        for f in built:
            assert_canonical(f)

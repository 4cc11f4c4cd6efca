import pytest

from rookq.errors import WeightMismatch
from rookq.exact import LaurentPoly
from rookq.shapes import partitions_of, sort_to_partition
from rookq.bitrace import (
    ContingencyMatrix,
    bracket,
    btr_def,
    btr_matrix,
    contingency_matrices,
    dim_rn,
    hl_inner,
    inner_sum,
    margin_matrices,
    regular_char,
)

Q = LaurentPoly.monomial("q", 1)


def _compositions(n):
    """Every composition of n (positive parts, each order)."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in _compositions(n - first)]


class TestBracket:
    def test_zero(self):
        assert bracket(0) == LaurentPoly.one("q")

    def test_one(self):
        assert bracket(1) == (Q - 1) ** 2

    def test_negative(self):
        assert bracket(-3).is_zero

    def test_exactness(self):
        # (q-1)(q^{2r}-1) is divisible by q+1 for every r
        for r in range(1, 8):
            poly = bracket(r)
            assert poly.is_ordinary()
            assert poly * (Q + 1) == (Q - 1) * (LaurentPoly.monomial("q", 2 * r) - 1)


class TestEnumeration:
    def test_margin_matrices_simple(self):
        mats = list(margin_matrices((1,), (1,)))
        assert mats == [((1,),)]

    def test_margin_matrices_square(self):
        mats = set(margin_matrices((1, 1), (1, 1)))
        assert mats == {((1, 0), (0, 1)), ((0, 1), (1, 0))}

    def test_contingency_count_unit(self):
        mats = list(contingency_matrices((1,), (1,)))
        assert len(mats) == 2
        entry_sets = {m.entries for m in mats}
        assert entry_sets == {((0, 0), (0, 1)), ((0, 1), (1, 0))}

    def test_contingency_validates(self):
        with pytest.raises(ValueError):
            ContingencyMatrix(mu=(1,), nu=(1,), entries=((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            ContingencyMatrix(mu=(1,), nu=(1,), entries=((0, 1), (0, 1)))


class TestBitrace:
    def test_unit_pair_by_hand(self):
        # the two matrices give ((q-1)^2 + (q-1)^2) / (q-1)^2 = 2
        assert btr_matrix((1,), (1,)) == LaurentPoly.const(2, "q")
        assert btr_def((1,), (1,)) == LaurentPoly.const(2, "q")

    def test_empty(self):
        assert btr_matrix((), ()) == LaurentPoly.one("q")
        assert btr_def((), ()) == LaurentPoly.one("q")

    def test_weight_guard(self):
        with pytest.raises(WeightMismatch):
            btr_def((2,), (1,))
        with pytest.raises(WeightMismatch):
            btr_matrix((2,), (1,))

    def test_routes_agree_exhaustive(self):
        for n in range(8):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    assert btr_matrix(mu, nu) == btr_def(mu, nu), (mu, nu)

    def test_matches_matrix_listing(self):
        # the row-by-row sum against the entry-by-entry weights of every
        # listed matrix; compositions keep their part order in the listing
        pairs = [(mu, nu) for n in range(5) for mu in _compositions(n) for nu in _compositions(n)]
        pairs += [(mu, nu) for mu in partitions_of(5) for nu in partitions_of(5)]
        pairs += [((1, 2, 2), (2, 1, 2)), ((1, 4), (3, 1, 1)), ((1, 1, 3), (2, 3))]
        for mu, nu in pairs:
            total = LaurentPoly.zero("q")
            for m in contingency_matrices(mu, nu):
                total = total + m.weight()
            expected = total.exact_div((Q - 1) ** (len(mu) + len(nu)))
            assert btr_matrix(mu, nu) == expected, (mu, nu)

    def test_matrix_route_without_the_polynomial_kernel(self, monkeypatch, clear_memos):
        # the matrix route sums in its own int dicts, so it shares no
        # LaurentPoly product or sum with btr_def
        pairs = [(mu, nu) for n in range(6) for mu in partitions_of(n) for nu in partitions_of(n)]
        expected = {pair: btr_def(*pair) for pair in pairs}

        def refuse(*args):
            raise AssertionError("btr_matrix reached the LaurentPoly kernel")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "sum_of_products"):
            monkeypatch.setattr(LaurentPoly, name, refuse)
        clear_memos()
        assert {pair: btr_matrix(*pair) for pair in pairs} == expected

    def test_symmetry(self):
        for n in range(5):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    assert btr_matrix(mu, nu) == btr_matrix(nu, mu)

    def test_composition_input(self):
        # the matrix route uses the given part order; values only depend on
        # the partition rearrangement
        assert btr_matrix((1, 2), (2, 1)) == btr_matrix((2, 1), (2, 1))
        assert btr_def((1, 2), (2, 1)) == btr_def((2, 1), (1, 2))


class TestHlInner:
    def test_unit(self):
        expected = (1 - LaurentPoly.monomial("q", -1)) ** 2
        assert hl_inner((1,), (1,)) == expected

    def test_empty(self):
        assert hl_inner((), ()) == LaurentPoly.one("q")

    def test_malformed_pair_refused_by_every_entry(self):
        # hl_inner once dropped the -1 of (2, -1) and returned the (2) x (2)
        # value, though |(2, -1)| = 1
        for alpha, beta in [((2, -1), (2,)), ((2, 0), (2,)), ((1, 0), (1,)), ((1.0,), (1,))]:
            for entry in (hl_inner, btr_matrix, btr_def):
                with pytest.raises(ValueError, match="positive integers"):
                    entry(alpha, beta)
                with pytest.raises(ValueError, match="positive integers"):
                    entry(beta, alpha)
            with pytest.raises(ValueError, match="positive integers"):
                list(contingency_matrices(alpha, beta))
        for entry in (hl_inner, btr_matrix, btr_def):
            with pytest.raises(WeightMismatch):
                entry((2, 1), (2,))
        with pytest.raises(ValueError, match="positive integers"):
            regular_char((2, 0))

    def test_mixed_shapes(self):
        # both routes agree (asserted inside) and the value is exact
        value = hl_inner((2,), (1, 1))
        assert value == (1 - LaurentPoly.monomial("q", -1)) ** 4

    def test_inner_sum_matches_margin_matrices(self):
        # every ordering of the margins, so the sort inside inner_sum is tested
        for n in range(6):
            for alpha in _compositions(n):
                for beta in partitions_of(n):
                    total = LaurentPoly.zero("q")
                    for m in margin_matrices(alpha, beta[::-1]):
                        prod = LaurentPoly.one("q")
                        for row in m:
                            for entry in row:
                                prod = prod * bracket(entry)
                        total = total + prod
                    assert inner_sum(sort_to_partition(alpha), beta) == total, (alpha, beta)


class TestRegularCharacter:
    def test_derived_values(self):
        assert regular_char((1, 1, 1)) == LaurentPoly.const(34, "q")
        assert regular_char((1, 1, 1, 1)) == LaurentPoly.const(209, "q")

class TestDims:
    def test_brute_force_small(self):
        # count n x n partial permutation matrices directly
        import itertools as it

        for n in range(4):
            count = 0
            cells = list(range(n))
            for k in range(n + 1):
                for rows in it.combinations(cells, k):
                    for cols in it.permutations(cells, k):
                        count += 1
            assert count == dim_rn(n)

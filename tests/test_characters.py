import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookq import characters, shapes, symfunc
from rookq.errors import VariantMismatch, WeightMismatch
from rookq.exact import LaurentPoly
from rookq.shapes import (
    comp_sub,
    f_lambda,
    nonzero_length,
    partitions_of,
    partitions_up_to,
    subcompositions,
)
from rookq.seminormal import MAX_TRACE_WEIGHT, trace_standard_element
from rookq.symfunc import classical_char
from rookq.characters import (
    CharacterTable,
    a_poly,
    a_poly_direct,
    b_poly,
    b_poly_direct,
    chi_empty,
    chi_hook,
    chi_iterative,
    chi_mn,
    chi_oracle,
    chi_two_row,
    compute_chi,
    identity_suite_ab,
    perm_sum_closed_forms,
    perm_sums,
)

Q = LaurentPoly.monomial("q", 1)
QINV = LaurentPoly.monomial("q", -1)


# Reference sums for one-row and one-column lambda, as composition sums over
# C(mu; k): the test's own route to values that chi_mn and the compact forms
# must reproduce.
def row_formula(m, mu):
    """chi^{(m)}_mu = q^n / (q-1)^l(mu) * sum_{tau in C(mu;m)} (1-q^{-1})^{l(tau)+l(mu-tau)}."""
    total = LaurentPoly.zero("q")
    for tau in subcompositions(mu, m):
        rest = comp_sub(mu, tau)
        total = total + (1 - QINV) ** (nonzero_length(tau) + nonzero_length(rest))
    return total.times_power(sum(mu)).exact_div((Q - 1) ** len(mu))


def column_formula(m, mu):
    """chi^{(1^m)}_mu: the same sum over C(mu; n-m), each term times (-q^{-1})^(m-l(mu-tau))."""
    total = LaurentPoly.zero("q")
    for tau in subcompositions(mu, sum(mu) - m):
        lmt = nonzero_length(comp_sub(mu, tau))
        term = (1 - QINV) ** (nonzero_length(tau) + lmt)
        total = total + term * LaurentPoly.monomial("q", -(m - lmt), (-1) ** (m - lmt))
    return total.times_power(sum(mu)).exact_div((Q - 1) ** len(mu))


class TestChiEmpty:
    def test_values(self):
        assert chi_empty((5,)) == Q**4
        assert chi_empty((1,) * 5) == LaurentPoly.one("q")
        assert chi_empty(()) == LaurentPoly.one("q")

    def test_parts_must_be_positive(self):
        # once gave q^-1, a value outside Z[q]
        for mu in ((2, -1), (2, 0)):
            with pytest.raises(ValueError, match="must be a partition"):
                chi_empty(mu)


def cells_up_to(weight):
    return [
        (lam, mu)
        for w in range(weight + 1)
        for mu in partitions_of(w)
        for lam in partitions_up_to(w)
    ]


def refuse(*args):
    raise AssertionError("reached code that this route must not share")


class TestOracle:
    def test_column_value(self):
        assert str(chi_oracle((1, 1, 1, 1), (2, 1, 1, 1))) == "q - 4"

    def test_independent_of_border_strips(self, monkeypatch, clear_memos):
        cells = cells_up_to(6)
        expected = {cell: chi_mn(*cell) for cell in cells}
        shared = (
            "gbs_complements",
            "gbs_weighted",
            "gbs_decompose",
            "gbs_weight_k",
            "_strip_weight",
            "border_counts",
            "vertical_strip_complements",
            "inner_product",
        )
        for module in (shapes, characters, symfunc):
            for name in shared:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(LaurentPoly, "sum_of_products", refuse)
        clear_memos()
        assert {cell: chi_oracle(*cell) for cell in cells} == expected

    def test_empty_value(self):
        assert str(chi_oracle((), (2, 1, 1, 1))) == "q"

    def test_weight_guard(self):
        with pytest.raises(WeightMismatch):
            chi_oracle((3, 1), (2,))

    @settings(max_examples=20)
    @given(
        st.integers(9, 12).flatmap(
            lambda w: st.tuples(
                st.sampled_from(partitions_up_to(w)), st.sampled_from(partitions_of(w))
            )
        )
    )
    def test_matches_mn_at_high_weight(self, cell):
        assert chi_oracle(*cell) == chi_mn(*cell)


class TestDisputedValue:
    """chi for lambda=(3,1,1), mu=(3,2,1) has two circulating candidate values
    differing by q^3; only one vanishes at q = 1 as the classical limit
    requires.  Every method here must produce that one.
    """

    GOOD = 2 * Q**3 - 10 * Q**2 + 10 * Q - 2
    OTHER = GOOD - Q**3

    def test_oracle_adjudicates(self):
        chi = chi_oracle((3, 1, 1), (3, 2, 1))
        assert str(chi) == "2*q^3 - 10*q^2 + 10*q - 2"
        assert chi == self.GOOD
        assert chi != self.OTHER
        assert chi.evaluate(1) == classical_char((3, 1, 1), (3, 2, 1)) == 0
        assert self.OTHER.evaluate(1) == -1

    def test_all_methods_agree(self):
        expected = self.GOOD
        assert chi_iterative((3, 1, 1), (3, 2, 1)) == expected
        assert chi_mn((3, 1, 1), (3, 2, 1)) == expected
        assert chi_hook(3, 5, (3, 2, 1)) == expected


class TestIterative:
    def test_small_value(self):
        assert str(chi_iterative((1,), (2,))) == "q - 1"

    def test_empty_base(self):
        for mu in partitions_of(4):
            assert chi_iterative((), mu) == chi_empty(mu)

    def test_independent_of_border_strips(self, monkeypatch):
        cells = [
            (lam, mu) for w in range(7) for mu in partitions_of(w) for lam in partitions_up_to(w)
        ]
        expected = {cell: chi_mn(*cell) for cell in cells}

        def refuse(*args):
            raise AssertionError("chi_iterative reached the border-strip code")

        for name in (
            "gbs_complements",
            "gbs_weighted",
            "gbs_decompose",
            "gbs_weight_k",
            "_strip_weight",
        ):
            for module in (shapes, characters):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        chi_iterative.cache_clear()
        chi_mn.cache_clear()
        assert {cell: chi_iterative(*cell) for cell in cells} == expected

    def test_independent_of_the_fused_kernel(self, monkeypatch):
        cells = cells_up_to(6)
        expected = {cell: chi_mn(*cell) for cell in cells}
        monkeypatch.setattr(LaurentPoly, "sum_of_products", refuse)
        chi_iterative.cache_clear()
        chi_mn.cache_clear()
        assert {cell: chi_iterative(*cell) for cell in cells} == expected

    @settings(max_examples=20)
    @given(
        st.integers(9, 12).flatmap(
            lambda w: st.tuples(
                st.sampled_from(partitions_up_to(w)), st.sampled_from(partitions_of(w))
            )
        )
    )
    def test_matches_mn_at_high_weight(self, cell):
        assert chi_iterative(*cell) == chi_mn(*cell)

    def test_matches_mn_on_every_cell_of_weight_12(self):
        cells = [(lam, mu) for mu in partitions_of(12) for lam in partitions_up_to(12)]
        assert next((c for c in cells if chi_iterative(*c) != chi_mn(*c)), None) is None


class TestSeminormal:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(8, MAX_TRACE_WEIGHT).flatmap(
            lambda w: st.tuples(
                st.sampled_from(partitions_up_to(w)), st.sampled_from(partitions_of(w))
            )
        )
    )
    def test_matches_mn_up_to_the_ceiling(self, cell):
        assert trace_standard_element(*cell) == chi_mn(*cell)


class TestMurnaghanNakayama:
    def test_single_row(self):
        assert str(chi_mn((4,), (5,))) == "q^4 - q^3"

    def test_non_hook_vanishes_on_full_cycle(self):
        assert chi_mn((2, 2), (5,)).is_zero

    def test_table_entry(self):
        assert str(chi_mn((2, 1), (2, 2, 1))) == "6*q^2 - 10*q + 4"

    def test_weights_come_from_the_walk_alone(self, monkeypatch, clear_memos):
        # gbs_decompose and gbs_weight_k stay the separate derivation that
        # verify and the strip tests compare the fused weight keys with
        cells = cells_up_to(8)
        expected = {cell: chi_oracle(*cell) for cell in cells}
        for name in ("gbs_decompose", "gbs_weight_k"):
            for module in (shapes, characters):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        clear_memos()
        assert {cell: chi_mn(*cell) for cell in cells} == expected

    def test_strip_memo_starts_cold(self, clear_memos):
        # conftest's clear_memos and perfbench's cold starts find each memo by
        # scanning a module for an lru_cache whose __module__ is that module
        memo = shapes.gbs_weighted
        assert hasattr(memo, "cache_info") and memo.__module__ == "rookq.shapes"
        assert characters.gbs_weighted is memo
        chi_mn((3, 2, 1), (2, 2, 2))
        assert memo.cache_info().currsize > 0
        clear_memos()
        assert memo.cache_info().currsize == 0


class TestCompactFormulas:
    def test_hook_column_case(self):
        # k=1 single-column hooks
        assert str(chi_hook(1, 2, (3, 2))) == "q^3 - 4*q^2 + 2*q"

    def test_hook_row_case_matches_row_formula(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                for m in range(1, n + 1):
                    assert chi_hook(m, m, mu) == row_formula(m, mu)

    def test_two_row_adjudicated_value(self):
        """For lambda=(3,2), mu=(2,2,2) a value 3q^2(q-1) circulates that drops
        the (1-1/q)^6 component of b_32; the cross-validated value is below."""
        expected = 6 * Q**3 - 12 * Q**2 + 9 * Q - 3
        assert str(expected) == "6*q^3 - 12*q^2 + 9*q - 3"
        assert chi_two_row(3, 5, (2, 2, 2)) == expected
        assert chi_oracle((3, 2), (2, 2, 2)) == expected
        assert chi_mn((3, 2), (2, 2, 2)) == expected

    def test_two_row_vanishing(self):
        assert chi_two_row(2, 4, (5,)).is_zero

    def test_two_row_degenerate_row(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                for m in range(1, n + 1):
                    assert chi_two_row(m, m, mu) == row_formula(m, mu)

    def test_shape_guards(self):
        with pytest.raises(VariantMismatch):
            chi_hook(3, 2, (5,))
        with pytest.raises(VariantMismatch):
            chi_two_row(1, 3, (5,))

    def test_hook_parts_must_be_positive(self):
        # once gave 1, where chi^{(1)}_{(2)} = q - 1
        with pytest.raises(ValueError, match="must be a partition"):
            chi_hook(1, 1, (0, 2))

    def test_two_row_parts_must_be_positive(self):
        with pytest.raises(ValueError, match="must be a partition"):
            chi_two_row(1, 1, (0, 2))


class TestSpecialCases:
    def test_ones(self):
        # mu = (1^n): the constant C(n, |lambda|) f_lambda
        assert math.comb(5, 4) * f_lambda((2, 2)) == 10
        assert chi_mn((2, 2), (1,) * 5) == LaurentPoly.const(10, "q")

    def test_row(self):
        assert str(row_formula(3, (3, 2))) == "3*q^3 - 3*q^2 + q"
        assert str(chi_mn((3,), (3, 2))) == "3*q^3 - 3*q^2 + q"

    def test_column(self):
        assert str(column_formula(3, (4, 1))) == "-q^2 + 2*q - 1"
        assert str(chi_mn((1, 1, 1), (4, 1))) == "-q^2 + 2*q - 1"
        for n in range(1, 6):
            for mu in partitions_of(n):
                for m in range(1, n + 1):
                    assert column_formula(m, mu) == chi_mn((1,) * m, mu), (m, mu)


class TestABFamilies:
    def test_base_values(self):
        for mu in [(1,), (2, 1), (3, 2, 1), (2, 2, 2)]:
            l = len(mu)
            assert a_poly(mu, 0, 0) == (1 - Q) ** l
            assert b_poly(mu, 0, 0) == (1 - QINV) ** l

    def test_a51_dual_route_value(self):
        """a_51 for mu=(3,2,1): the tau=(3,2,0) term has only two nonzero
        parts, so the correct value keeps a (1-1/q)^3 summand that a
        circulating worked example drops (the root of the disputed character
        value above)."""
        mu = (3, 2, 1)
        expected = (1 - QINV) ** 3 + ((1 - QINV) ** 4).scale(2)
        assert a_poly(mu, 5, 1) == expected
        assert a_poly_direct(mu, 5, 1) == expected

    def test_b41_value(self):
        mu = (2, 2, 2)
        expected = ((1 - QINV) ** 5).scale(6) + ((1 - QINV) ** 4).scale(3)
        assert b_poly(mu, 4, 1) == expected
        assert b_poly_direct(mu, 4, 1) == expected

    def test_b32_keeps_sixth_power(self):
        mu = (2, 2, 2)
        expected = (
            ((1 - QINV) ** 6).scale(3)
            + ((1 - QINV) ** 5).scale(6)
            + ((1 - QINV) ** 4).scale(6)
        )
        assert b_poly(mu, 3, 2) == expected
        assert b_poly_direct(mu, 3, 2) == expected

    def test_out_of_range_zero(self):
        assert a_poly((2, 1), 3, 1).is_zero
        assert b_poly((2, 1), -1, 0).is_zero
        assert b_poly((2, 1), 2, -1).is_zero

    def test_parts_must_be_positive(self):
        # once gave 0
        with pytest.raises(ValueError, match="must be a partition"):
            a_poly((2, -1), 1, 0)

    def test_direct_a_parts_must_be_positive(self):
        # once gave 0
        with pytest.raises(ValueError, match="must be a partition"):
            a_poly_direct((2, -1), 1, 0)

    def test_direct_b_parts_must_be_positive(self):
        # once gave b_10 of mu = (2)
        with pytest.raises(ValueError, match="must be a partition"):
            b_poly_direct((0, 2), 1, 0)

    FROZEN = {
        ("a", (3, 2, 1), 5, 1): "3 - 11*q^-1 + 15*q^-2 - 9*q^-3 + 2*q^-4",
        ("b", (2, 2, 2), 4, 1): "9 - 42*q^-1 + 78*q^-2 - 72*q^-3 + 33*q^-4 - 6*q^-5",
        ("b", (2, 2, 2), 3, 2): "15 - 72*q^-1 + 141*q^-2 - 144*q^-3 + 81*q^-4 - 24*q^-5 + 3*q^-6",
        ("a", (4, 2, 1), 3, 2): (
            "9*q^2 - 55*q + 138 - 183*q^-1 + 137*q^-2 - 57*q^-3 + 12*q^-4 - q^-5"
        ),
        ("b", (4, 2, 1), 3, 2): (
            "16 - 80*q^-1 + 165*q^-2 - 180*q^-3 + 110*q^-4 - 36*q^-5 + 5*q^-6"
        ),
        ("a", (3, 3), 2, 2): "3*q^2 - 18*q + 43 - 52*q^-1 + 33*q^-2 - 10*q^-3 + q^-4",
        ("b", (5,), 2, 0): "1 - 2*q^-1 + q^-2",
    }

    def test_direct_route_without_the_tables(self, monkeypatch, clear_memos):
        monkeypatch.setattr(characters, "_ab_tables", refuse)
        route = {"a": a_poly_direct, "b": b_poly_direct}
        assert {key: str(route[key[0]](*key[1:])) for key in self.FROZEN} == self.FROZEN

    def test_tables_without_border_counts(self, monkeypatch, clear_memos):
        for module in (shapes, characters):
            monkeypatch.setattr(module, "border_counts", refuse)
        route = {"a": a_poly, "b": b_poly}
        assert {key: str(route[key[0]](*key[1:])) for key in self.FROZEN} == self.FROZEN

    @pytest.mark.parametrize("w", [7, 8])
    def test_tables_match_direct(self, w):
        for mu in partitions_of(w):
            for i in range(w + 1):
                for j in range(w + 1 - i):
                    assert a_poly(mu, i, j) == a_poly_direct(mu, i, j), (mu, i, j)
                    assert b_poly(mu, i, j) == b_poly_direct(mu, i, j), (mu, i, j)


class TestIdentitySuite:
    def test_single_part(self):
        report = identity_suite_ab((1,))
        assert all(report.values())

    def test_single_row(self):
        for n in range(1, 7):
            report = identity_suite_ab((n,))
            assert all(report.values()), report


class TestPermSums:
    def test_ones(self):
        mu = (1, 1, 1)
        s1, s2 = perm_sums(mu)
        rhs1, rhs2 = perm_sum_closed_forms(mu)
        assert s1 == rhs1
        assert s2 == rhs2 == LaurentPoly.const(27, "q")

    def test_single_row(self):
        for n in range(1, 7):
            mu = (n,)
            s1, s2 = perm_sums(mu)
            rhs1, rhs2 = perm_sum_closed_forms(mu)
            assert s1 == rhs1
            assert s2 == rhs2

    def test_empty(self):
        s1, s2 = perm_sums(())
        rhs1, rhs2 = perm_sum_closed_forms(())
        assert s1 == rhs1
        assert s2 == rhs2 == LaurentPoly.one("q")

    def test_parts_must_be_positive(self):
        # once gave (0, 0)
        for mu in ((2, -1), (2, 0)):
            with pytest.raises(ValueError, match="must be a partition"):
                perm_sums(mu)


class TestDispatch:
    def test_auto_paths(self):
        # "auto" is another spelling of "mn"
        for lam in [(3, 1), (3, 2), (2, 2, 1)]:
            assert compute_chi(lam, (4, 1), "auto") == chi_mn(lam, (4, 1))

    def test_all_methods_one_cell(self):
        lam, mu = (2, 1), (3, 2)
        values = {m: compute_chi(lam, mu, m) for m in ("oracle", "iterative", "mn", "hook", "seminormal")}
        assert len(set(map(str, values.values()))) == 1

    def test_malformed_input_refused_by_every_method(self):
        # each of these once gave a value: the oracle 1 on (2,1) x (2,0,1),
        # where chi^(2,1)_(2,1) = q - 1, and mn and iterative 0 on (1,2) x (3)
        bad = [((2, 1), (2, 0, 1)), ((1, 2), (3,)), ((2, 0), (3,)), ((1,), (2, -1))]
        for method in characters.METHODS + ("auto",):
            for lam, mu in bad:
                with pytest.raises(ValueError, match="must be a partition"):
                    compute_chi(lam, mu, method)
                with pytest.raises(ValueError, match="must be a partition"):
                    characters.cross_checked(list(lam), list(mu), [method])
        assert str(compute_chi([2, 1], [2, 1], "oracle")) == "q - 1"

    def test_unsorted_mu_is_kept(self):
        for w in range(1, 6):
            for mu in partitions_of(w):
                for perm in set(itertools.permutations(mu)):
                    for lam in partitions_up_to(w):
                        want = chi_mn(lam, mu)
                        for method in ("oracle", "iterative", "mn", "seminormal"):
                            assert compute_chi(lam, perm, method) == want, (lam, perm, method)

    def test_table_builder_cross_checks(self):
        table = CharacterTable.build(3, methods=("oracle", "iterative", "mn"))
        assert str(table.value((2, 1), (3,))) == "-q"
        assert len(table.cells) == len(table.rows) * len(table.cols)

    def test_table_builder_reports_mismatch(self, monkeypatch):
        import rookq.characters as chmod
        from rookq.errors import MethodMismatch

        real = chmod._by_method

        def skewed(lam, mu, method):
            chi = real(lam, mu, method)
            if method == "iterative" and lam == (1,) and mu == (2,):
                return chi + 1
            return chi

        monkeypatch.setattr(chmod, "_by_method", skewed)
        with pytest.raises(MethodMismatch) as exc:
            CharacterTable.build(2, methods=("mn", "iterative"))
        assert exc.value.lam == (1,) and exc.value.mu == (2,)
        assert set(exc.value.values) == {"mn", "iterative"}

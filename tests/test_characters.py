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


def qp(s):
    return LaurentPoly.parse(s, "q")


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
        assert chi_oracle((1, 1, 1, 1), (2, 1, 1, 1)) == qp("q - 4")

    def test_independent_of_border_strips(self, monkeypatch, clear_memos):
        cells = cells_up_to(6)
        expected = {cell: chi_mn(*cell) for cell in cells}
        shared = (
            "gbs_complements",
            "gbs_decompose",
            "gbs_weight_k",
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
        assert chi_oracle((), (2, 1, 1, 1)) == qp("q")

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

    GOOD = "2*q^3 - 10*q^2 + 10*q - 2"
    OTHER = "q^3 - 10*q^2 + 10*q - 2"

    def test_oracle_adjudicates(self):
        chi = chi_oracle((3, 1, 1), (3, 2, 1))
        assert chi == qp(self.GOOD)
        assert chi != qp(self.OTHER)
        assert chi.evaluate(1) == classical_char((3, 1, 1), (3, 2, 1)) == 0
        assert qp(self.OTHER).evaluate(1) == -1

    def test_all_methods_agree(self):
        expected = qp(self.GOOD)
        assert chi_iterative((3, 1, 1), (3, 2, 1)) == expected
        assert chi_mn((3, 1, 1), (3, 2, 1)) == expected
        assert chi_hook(3, 5, (3, 2, 1)) == expected


class TestIterative:
    def test_small_value(self):
        assert chi_iterative((1,), (2,)) == qp("q - 1")

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

        for name in ("gbs_complements", "gbs_decompose", "gbs_weight_k"):
            monkeypatch.setattr(shapes, name, refuse)
            monkeypatch.setattr(characters, name, refuse)
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
        assert chi_mn((4,), (5,)) == qp("q^4 - q^3")

    def test_non_hook_vanishes_on_full_cycle(self):
        assert chi_mn((2, 2), (5,)).is_zero

    def test_table_entry(self):
        assert chi_mn((2, 1), (2, 2, 1)) == qp("6*q^2 - 10*q + 4")


class TestCompactFormulas:
    def test_hook_column_case(self):
        # k=1 single-column hooks
        assert chi_hook(1, 2, (3, 2)) == qp("q^3 - 4*q^2 + 2*q")

    def test_hook_row_case_matches_row_formula(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                for m in range(1, n + 1):
                    assert chi_hook(m, m, mu) == row_formula(m, mu)

    def test_two_row_adjudicated_value(self):
        """For lambda=(3,2), mu=(2,2,2) a value 3q^2(q-1) circulates that drops
        the (1-1/q)^6 component of b_32; the cross-validated value is below."""
        expected = qp("6*q^3 - 12*q^2 + 9*q - 3")
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


class TestSpecialCases:
    def test_ones(self):
        # mu = (1^n): the constant C(n, |lambda|) f_lambda
        assert math.comb(5, 4) * f_lambda((2, 2)) == 10
        assert chi_mn((2, 2), (1,) * 5) == LaurentPoly.const(10, "q")

    def test_row(self):
        assert row_formula(3, (3, 2)) == qp("3*q^3 - 3*q^2 + q")
        assert chi_mn((3,), (3, 2)) == qp("3*q^3 - 3*q^2 + q")

    def test_column(self):
        assert column_formula(3, (4, 1)) == qp("-q^2 + 2*q - 1")
        assert chi_mn((1, 1, 1), (4, 1)) == qp("-q^2 + 2*q - 1")
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
        assert compute_chi([2, 1], [2, 1], "oracle") == qp("q - 1")

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
        assert table.value((2, 1), (3,)) == qp("-q")
        assert len(table.cells) == len(table.rows) * len(table.cols)

    def test_table_builder_reports_mismatch(self, monkeypatch):
        import rookq.characters as chmod
        from rookq.errors import MethodMismatch

        real = chmod.compute_chi

        def skewed(lam, mu, method="mn"):
            chi = real(lam, mu, method)
            if method == "iterative" and lam == (1,) and mu == (2,):
                return chi + 1
            return chi

        monkeypatch.setattr(chmod, "compute_chi", skewed)
        with pytest.raises(MethodMismatch) as exc:
            CharacterTable.build(2, methods=("mn", "iterative"))
        assert exc.value.lam == (1,) and exc.value.mu == (2,)
        assert set(exc.value.values) == {"mn", "iterative"}

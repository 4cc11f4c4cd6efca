import pytest

from rookq.errors import ShapeTooLarge, WeightMismatch
from rookq.exact import LaurentPoly, RationalFunction
from rookq.shapes import partitions_of, partitions_up_to, standard_count
from rookq.characters import chi_oracle
from rookq.seminormal import (
    _gen_action,
    enumerate_tableaux,
    quadratic_check,
    standard_word,
    trace_standard_element,
)

Q = LaurentPoly.monomial("q", 1)
S = LaurentPoly.half_monomial("q", 1)


def entry(cols, r, c):
    """The coefficient of basis[r] in the image of basis[c], from sparse columns."""
    return dict(cols[c]).get(r, RationalFunction(0, 1, var="q"))


class TestTableaux:
    def test_counts(self):
        assert len(enumerate_tableaux((1,), 5)) == 5
        assert len(enumerate_tableaux((2, 1), 3)) == 2
        assert len(enumerate_tableaux((), 3)) == 1

    def test_count_formula(self):
        for n in range(6):
            for lam in partitions_up_to(n):
                assert len(enumerate_tableaux(lam, n)) == standard_count(lam, n)

    def test_shape_too_large(self):
        with pytest.raises(ShapeTooLarge):
            enumerate_tableaux((3, 1), 3)

    def test_deterministic_order(self):
        basis = enumerate_tableaux((1,), 2)
        assert basis == (((1,),), ((2,),))


class TestGeneratorMatrices:
    def test_two_dim_example(self):
        # lambda=(1), n=2 in basis {1}, {2}: columns are images of the basis
        m = _gen_action(1, (1,), 2)
        rf = lambda p: RationalFunction(p)
        assert entry(m, 0, 0) == rf(LaurentPoly.zero("q"))
        assert entry(m, 1, 0) == rf(S)
        assert entry(m, 0, 1) == rf(S)
        assert entry(m, 1, 1) == rf(Q - 1)

    def test_single_row_eigenvalue(self):
        for n in range(2, 5):
            m = _gen_action(1, (n,), n)
            assert len(m) == 1
            assert entry(m, 0, 0) == RationalFunction(Q)

    def test_sign_module(self):
        m = _gen_action(1, (1, 1), 2)
        assert len(m) == 1
        assert entry(m, 0, 0) == RationalFunction(-1, 1, var="q")


class TestRelations:
    def test_quadratic_small(self):
        assert quadratic_check(1, (1,), 2)
        assert quadratic_check(1, (2, 1), 3)
        assert quadratic_check(1, (), 3)


class TestTraces:
    def test_standard_word_blocks(self):
        assert standard_word((2,)) == [1]
        assert standard_word((5,)) == [1, 2, 3, 4]
        assert standard_word((2, 2, 1)) == [1, 3]
        assert standard_word((1, 1, 1)) == []

    def test_small_trace(self):
        assert trace_standard_element((1,), (2,)) == Q - 1

    def test_single_row_trace(self):
        assert trace_standard_element((4,), (5,)) == Q**4 - Q**3

    def test_empty_shape_trace(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                expected = LaurentPoly.monomial("q", sum(mu) - len(mu))
                assert trace_standard_element((), mu) == expected

    def test_identity_trace_is_dimension(self):
        for n in range(5):
            for lam in partitions_up_to(n):
                got = trace_standard_element(lam, (1,) * n)
                assert got == LaurentPoly.const(standard_count(lam, n), "q")

    def test_weight_guard(self):
        with pytest.raises(WeightMismatch):
            trace_standard_element((3, 1), (2, 1))

    def test_matches_oracle_up_to_six(self):
        # every cell through weight 6: 330 of them at n = 6
        for n in range(7):
            for mu in partitions_of(n):
                for lam in partitions_up_to(n):
                    assert trace_standard_element(lam, mu) == chi_oracle(lam, mu), (lam, mu)

import gc
import itertools

import pytest

from rookq.errors import ShapeTooLarge, WeightMismatch
from rookq.exact import LaurentPoly, balanced_digits
from rookq.shapes import partitions_of, partitions_up_to, standard_count
from rookq.characters import chi_mn, chi_oracle
import rookq.seminormal as sn
from rookq.cli import main
from rookq import verify
from rookq.seminormal import (
    _gen_action,
    commute_check,
    enumerate_tableaux,
    quadratic_check,
    standard_word,
    trace_standard_element,
)

Q = LaurentPoly.monomial("q", 1)


def brute_force_tableaux(lam, n):
    """Content vectors of every injective filling of lam's cells by labels from
    {1..n} whose rows and columns increase."""
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    out = []
    for labels in itertools.permutations(range(1, n + 1), len(cells)):
        at = dict(zip(cells, labels))
        if all(
            at[r, c] < at.get((r, c + 1), n + 1) and at[r, c] < at.get((r + 1, c), n + 1)
            for r, c in cells
        ):
            contents = [None] * n
            for (r, c), label in at.items():
                contents[label - 1] = c - r
            out.append(tuple(contents))
    return out


def entry(cols, r, c):
    """The coefficient of basis[r] in the image of basis[c], from sparse columns."""
    return dict(cols[c]).get(r, LaurentPoly.zero("q"))


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

    def test_matches_brute_force_fillings(self):
        for n in range(7):
            for lam in partitions_up_to(n):
                basis = enumerate_tableaux(lam, n)
                assert len(set(basis)) == len(basis), (lam, n)
                assert set(basis) == set(brute_force_tableaux(lam, n)), (lam, n)

    def test_deterministic_order(self):
        basis = enumerate_tableaux((1,), 2)
        assert basis == ((0, None), (None, 0))


class TestGeneratorMatrices:
    def test_two_dim_example(self):
        # lambda=(1), n=2 in basis {1}, {2}: columns are images of the basis;
        # the basis scaled by q^(s/2) turns both q^(1/2) relabellings into 1 and q,
        # and the scale D_1 is 1
        m = _gen_action(1, (1,), 2)
        assert entry(m, 0, 0) == LaurentPoly.zero("q")
        assert entry(m, 1, 0) == LaurentPoly.one("q")
        assert entry(m, 0, 1) == Q
        assert entry(m, 1, 1) == Q - 1
        # the change of basis keeps the trace and the determinant
        trace = entry(m, 0, 0) + entry(m, 1, 1)
        det = entry(m, 0, 0) * entry(m, 1, 1) - entry(m, 0, 1) * entry(m, 1, 0)
        assert (trace, det) == (Q - 1, -Q)

    def test_single_row_eigenvalue(self):
        for n in range(2, 5):
            m = _gen_action(1, (n,), n)
            assert len(m) == 1
            assert entry(m, 0, 0) == Q

    def test_sign_module(self):
        m = _gen_action(1, (1, 1), 2)
        assert len(m) == 1
        assert entry(m, 0, 0) == LaurentPoly.const(-1, "q")

    def test_scaled_entries_are_integer_laurent_polynomials(self):
        # D_i = prod Phi_e(q), 2 <= e <= min(i, h-1), clears every q-integer
        # denominator of T_i: a smaller bound fails an exact division here;
        # the traces evaluate every entry at q = 2^k, so none has q^-1
        for n in range(2, 8):
            for lam in partitions_up_to(n):
                for i in range(1, n):
                    for col in _gen_action(i, lam, n):
                        for _, c in col:
                            assert isinstance(c, LaurentPoly) and c.var == "q", (lam, n, i)
                            assert c.is_ordinary(), (lam, n, i)


class TestRelations:
    def test_quadratic_small(self):
        assert quadratic_check(1, (1,), 2)
        assert quadratic_check(1, (2, 1), 3)
        assert quadratic_check(1, (), 3)

    @pytest.mark.parametrize(
        "gen, skew, check",
        [
            # S_2 doubled: S_1's quadratic relation holds, the braid with S_2 fails
            (2, lambda l, r, c: 2 * c, lambda: quadratic_check(1, (2, 1), 4)),
            # S_1's diagonal negated: the quadratic relation fails
            (1, lambda l, r, c: -c if r == l else c, lambda: quadratic_check(1, (2, 1), 4)),
            # S_1's column 0 doubled: S_1 and S_3 no longer commute
            (1, lambda l, r, c: 2 * c if l == 0 else c, lambda: commute_check(1, 3, (2, 1), 4)),
        ],
    )
    def test_each_check_detects_a_skewed_generator(self, monkeypatch, clear_memos, gen, skew, check):
        assert check()
        action = sn._gen_action

        def skewed(i, lam, n):
            cols = action(i, lam, n)
            if i != gen:
                return cols
            return tuple(tuple((r, skew(l, r, c)) for r, c in col) for l, col in enumerate(cols))

        monkeypatch.setattr(sn, "_gen_action", skewed)
        clear_memos()  # the evaluated generators are memoised per shape
        assert not check()

    @staticmethod
    def sides(lam, n):
        """(relation, l, lhs, rhs) for every relation on every basis vector v_l,
        each side computed by polynomial products of the columns of S_g."""
        gens = {g: _gen_action(g, lam, n) for g in range(1, n)}
        scale = {g: sn._scale(sn._max_gap(g, lam)) for g in range(1, n)}

        def times(vec, p):
            return {r: v * p for r, v in vec.items()}

        for l in range(len(enumerate_tableaux(lam, n))):
            for i in range(1, n):
                a = gens[i]
                rhs = times(sn._image([a], l), scale[i] * (Q - 1))
                rhs[l] = rhs.get(l, 0) + scale[i] * scale[i] * Q
                yield ("quadratic", i), l, sn._image([a, a], l), rhs
                if i + 1 < n:
                    b = gens[i + 1]
                    aba, bab = sn._image([a, b, a], l), sn._image([b, a, b], l)
                    yield ("braid", i), l, times(aba, scale[i + 1]), times(bab, scale[i])
                for j in range(i + 2, n):
                    b = gens[j]
                    yield ("commute", i, j), l, sn._image([a, b], l), sn._image([b, a], l)

    def test_base_holds_both_sides_of_every_relation(self):
        # a residue lhs - rhs is zero iff its value at 2^k is, once 2^k exceeds
        # twice its l1 norm; bound the sides, since the residue is zero here.
        # A base with only the trace bound is too small for S_i^2 v.
        zero = LaurentPoly.zero("q")
        for n in range(7):
            for lam in partitions_up_to(n):
                k = sn._model(lam, n)[0]
                for rel, l, lhs, rhs in self.sides(lam, n):
                    for r in set(lhs) | set(rhs):
                        left, right = lhs.get(r, zero), rhs.get(r, zero)
                        assert left == right, (lam, n, rel, l, r)
                        norm = sum(abs(c) for side in (left, right) for _, c in side.items())
                        assert 2 * norm < 2**k, (lam, n, rel, l, r)

    def test_relations_hold_to_weight_seven(self):
        # every quadratic, braid and commutation relation on every shape, n <= 7
        assert verify.check_seminormal_relations.__wrapped__(7) is None

    def test_makes_no_polynomial_product(self, monkeypatch):
        lam, n = (2, 1), 5
        sn._model(lam, n)

        def refuse(*args):
            raise AssertionError("polynomial product in a relation check")

        monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
        monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
        assert all(quadratic_check(i, lam, n) for i in range(1, n))
        assert commute_check(1, 3, lam, n) and commute_check(2, 4, lam, n)


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
        # and every one of the 675 cells of weight 7 against mn
        for mu in partitions_of(7):
            for lam in partitions_up_to(7):
                assert trace_standard_element(lam, mu) == chi_mn(lam, mu), (lam, mu)

    def test_makes_no_polynomial_product(self, monkeypatch):
        lam, mu = (3, 2, 1), (4, 3)
        expected = chi_mn(lam, mu)
        # only the few distinct entries of each S_g and the word's divisor
        # take polynomial products; the model reads every generator, not only
        # those in the word
        for g in range(1, sum(mu)):
            sn._entries(sn._max_gap(g, lam))
        sn._divisor(tuple(sorted(sn._max_gap(g, lam) for g in standard_word(mu))))

        def refuse(*args):
            raise AssertionError("polynomial product in the trace")

        monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
        monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
        assert trace_standard_element(lam, mu) == expected

    def test_base_bounds_every_trace(self):
        # 555 traces; at n <= 1 the bound is tight, so the base needs its factor 2
        for n in range(7):
            for lam in partitions_up_to(n):
                k = sn._model(lam, n)[0]
                dim = len(enumerate_tableaux(lam, n))
                for mu in partitions_of(n):
                    actions = [_gen_action(g, lam, n) for g in standard_word(mu)]
                    diagonal = (sn._image(actions, l).get(l, 0) for l in range(dim))
                    trace = sum(diagonal, LaurentPoly.zero("q"))
                    norm = sum(abs(c) for _, c in trace.items())
                    assert 2 * norm < 2**k, (lam, mu)

    def test_base_covers_the_dimension(self, monkeypatch, clear_memos):
        # no true trace comes near dim * prod ||S_g||, but with every S_g the
        # identity the trace is dim, and the base must still hold it; here dim
        # = 40 outgrows every relation bound, the largest (1 + ||D_i||)^2 = 9
        lam, n = (2, 1), 6
        dim = len(enumerate_tableaux(lam, n))
        identity = tuple(((l, LaurentPoly.one("q")),) for l in range(dim))
        monkeypatch.setattr(sn, "_gen_action", lambda i, lam, n: identity)
        clear_memos()
        assert 2 * dim < 2 ** sn._model(lam, n)[0]

    def test_walk_makes_one_product_per_extended_word(self, monkeypatch, capsys, clear_memos):
        # the tree holds the standard word of every mu |- n once, each parent
        # before its children and in lexicographic order
        for n in range(9):
            tree = sn._word_tree(n)
            words = []
            for mu, g, parent, _ in tree:
                words.append(words[parent] + [g] if parent >= 0 else [])
                assert words[-1] == standard_word(mu), (n, mu)
            assert words == sorted(words)
            assert sorted(mu for mu, *_ in tree) == sorted(partitions_of(n))
            extended = [any(w[: len(v)] == v and w != v for w in words) for v in words]
            assert [node[3] for node in tree] == extended, n
        # per basis vector, one vector-matrix product per nonempty word that
        # another word extends (the empty word's row vector is e_l itself)
        lam, n = (3, 2, 1), 7
        apply, products = sn._apply, []
        with monkeypatch.context() as patch:
            patch.setattr(sn, "_apply", lambda *args: products.append(1) or apply(*args))
            trace_standard_element(lam, (4, 2, 1))
        dim = len(enumerate_tableaux(lam, n))
        words = sum(extended for _, g, _, extended in sn._word_tree(n) if g)
        assert words == 8 and len(products) == dim * words
        # the memo keeps the evaluated generators and the totals alone: no
        # (row, LaurentPoly) entry of a polynomial column outlives a table run
        def polynomial_entries():
            gc.collect()
            pairs = (o for o in gc.get_objects() if type(o) is tuple and len(o) == 2)
            return sum(type(o[0]) is int and type(o[1]) is LaurentPoly for o in pairs)

        clear_memos()
        before = polynomial_entries()
        assert main(["table", "--n", "6", "--methods", "seminormal"]) == 0
        capsys.readouterr()
        assert polynomial_entries() == before
        gens = sn._model(lam, 6)[1]
        assert sn._model.cache_info().hits > 0
        assert all(type(v) is int for cols in gens for col in cols for _, v in col)
        assert all(type(v) is int for v in sn._traces(lam, 6)[1].values())

    def test_walk_totals_match_the_full_images(self):
        # for every cell to weight 6, the walk's total for mu equals the sum of
        # the diagonal entries of the full images of every v_l, and one
        # division by the product of the D_g equals dividing by each D_g in turn
        for n in range(7):
            for lam in partitions_up_to(n):
                k, gens = sn._model(lam, n)
                totals = sn._traces(lam, n)[1]
                assert sorted(totals) == sorted(partitions_of(n))
                dim = len(enumerate_tableaux(lam, n))
                for mu in partitions_of(n):
                    word = standard_word(mu)
                    actions = [gens[g - 1] for g in word]
                    value = totals[mu]
                    assert value == sum(sn._image(actions, l).get(l, 0) for l in range(dim)), (lam, mu)
                    total = stepwise = balanced_digits(value, k)
                    for g in word:
                        stepwise = stepwise.exact_div(sn._scale(sn._max_gap(g, lam)))
                    gaps = tuple(sorted(sn._max_gap(g, lam) for g in word))
                    assert total.exact_div(sn._divisor(gaps)) == stepwise, (lam, mu)

    def test_cold_table_builds_each_entry_table_once(self, capsys, clear_memos):
        # the entries of S_i depend on (i, lam) only through the gap min(i, h-1),
        # which is at most 5 on the table of weight 6
        assert main(["table", "--n", "6", "--methods", "seminormal"]) == 0
        capsys.readouterr()
        assert sn._entries.cache_info().misses <= 6
        assert sn._entries.cache_info().hits > 0


class TestBalancedDigits:
    @staticmethod
    def at(poly, k):
        return int(poly.evaluate(2**k))

    def test_negative_coefficients(self):
        poly = -3 * Q**5 + 2 * Q**3 - Q**2 - 7
        for k in range(4, 9):
            assert balanced_digits(self.at(poly, k), k) == poly

    def test_coefficients_at_the_bound(self):
        # coefficients of exactly +-M at the least 2^k >= 2M + 1
        for m in (1, 3, 4, 100):
            k = (2 * m).bit_length()
            assert 2**k >= 2 * m + 1 > 2 ** (k - 1)
            for poly in [m * Q**4 - m * Q + m, -m * Q**3 - m, m - m * Q**2]:
                assert balanced_digits(self.at(poly, k), k) == poly
                assert balanced_digits(-self.at(poly, k), k) == -poly

    def test_zero(self):
        assert balanced_digits(0, 16).is_zero

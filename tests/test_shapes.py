import itertools
from collections import Counter

import pytest

from rookq.errors import NotGbsError
from rookq.exact import LaurentPoly
from rookq.shapes import (
    border_counts,
    conjugate,
    f_lambda,
    gbs_complements,
    gbs_decompose,
    gbs_weight_k,
    gbs_weighted,
    _strip_weight,
    hook_lengths,
    partitions_of,
    sort_to_partition,
    standard_count,
    sub_partitions,
    subcompositions,
    vertical_strip_complements,
    z_lambda,
)

Q = LaurentPoly.monomial("q", 1)


def skew_cells(lam, nu):
    """Cells (row, col) of lam/nu, 0-indexed, rows top to bottom."""
    nu = tuple(nu) + (0,) * (len(lam) - len(nu))
    return [(i, j) for i, o in enumerate(lam) for j in range(nu[i], o)]


def weight_of_strips(comps):
    """Reference wt(theta) from the (size, rows, cols) of its components:
    (q-1)^(m-1), scaled by the sign, shifted by the columns."""
    if not comps:
        return LaurentPoly.one("q")
    sign = (-1) ** sum(rows - 1 for _, rows, _ in comps)
    w = (Q - 1) ** (len(comps) - 1)
    return w.scale(sign).times_power(sum(cols - 1 for _, _, cols in comps))


def weight_k_of_strips(comps, size, k):
    """Reference wt(theta; k) for 0 <= size <= k, case by case from wt(theta)."""
    w = weight_of_strips(comps)
    if size == 0:
        return w.times_power(k - 1)
    if size < k:
        return ((Q - 1) * w).times_power(k - size - 1)
    return w


def weight_key(comps):
    """(components, parity of the row total, column total, size) of the
    (size, rows, cols) components: the key of ``_strip_weight``."""
    return (
        len(comps),
        sum(rows - 1 for _, rows, _ in comps) % 2,
        sum(cols - 1 for _, _, cols in comps),
        sum(size for size, _, _ in comps),
    )


def fields(p):
    return p.var, p._terms, [type(c) for _, c in p.items()]


def bfs_strips(lam, nu):
    """Reference decomposition of lam/nu by search over the cell set.

    None when the shape holds a 2x2 block, else the sorted (size, rows,
    cols) of each edge-connected component.
    """
    cells = set(skew_cells(lam, nu))
    for (i, j) in cells:
        if {(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= cells:
            return None
    seen = set()
    strips = []
    for start in sorted(cells):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            c = stack.pop()
            if c in comp:
                continue
            comp.add(c)
            i, j = c
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in cells and nb not in comp:
                    stack.append(nb)
        seen |= comp
        strips.append((len(comp), len({i for i, _ in comp}), len({j for _, j in comp})))
    return sorted(strips)


def brute_partitions(n):
    """Independent enumeration: sorted tuples of all compositions."""
    found = set()

    def rec(remaining, prefix):
        if remaining == 0:
            found.add(tuple(sorted(prefix, reverse=True)))
            return
        for part in range(1, remaining + 1):
            rec(remaining - part, prefix + [part])

    rec(n, [])
    return found


class TestPartitions:
    def test_empty(self):
        assert partitions_of(0) == ((),)

    @pytest.mark.parametrize("n,count", [(4, 5), (5, 7)])
    def test_counts_against_brute_force(self, n, count):
        got = partitions_of(n)
        assert len(got) == count
        assert set(got) == brute_partitions(n)

    def test_reverse_lex_order(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_conjugate(self):
        assert conjugate((3, 1, 1)) == (3, 1, 1)
        assert conjugate((4,)) == (1, 1, 1, 1)
        assert conjugate(()) == ()

    def test_z_lambda(self):
        assert z_lambda((1, 1, 1)) == 6
        assert z_lambda((3, 2, 1)) == 6
        assert z_lambda((2, 2)) == 8


class TestCompositions:
    def test_full_weight(self):
        assert subcompositions((3, 2, 1), 6) == ((3, 2, 1),)

    def test_single_unit(self):
        assert set(subcompositions((2, 1), 1)) == {(1, 0), (0, 1)}

    def test_count_six(self):
        got = subcompositions((3, 2, 1), 3)
        assert len(got) == 6
        # brute force over the full box product
        brute = {
            c
            for c in itertools.product(range(4), range(3), range(2))
            if sum(c) == 3
        }
        assert set(got) == brute

    def test_overweight_empty(self):
        assert subcompositions((2, 1), 4) == ()

    def test_sort_to_partition(self):
        assert sort_to_partition((0, 2, 1)) == (2, 1)
        assert sort_to_partition((0, 0, 0)) == ()
        assert sort_to_partition((1, 3, 1)) == (3, 1, 1)

    @pytest.mark.parametrize(
        "mu",
        [mu for w in range(8) for mu in partitions_of(w)] + [(1, 3, 2), (2, 0, 3), (1, 1, 2, 1)],
    )
    def test_border_counts_against_brute_force(self, mu):
        for k in range(sum(mu) + 2):
            brute = Counter()
            for tau in itertools.product(*(range(p + 1) for p in mu)):
                if sum(tau) == k:
                    rest = sorted((m - t for m, t in zip(mu, tau) if m > t), reverse=True)
                    brute[tuple(rest), sum(1 for t in tau if t)] += 1
            assert border_counts(mu, k) == brute, (mu, k)


class TestSkewAndStrips:
    def test_vertical_strip_complements(self):
        subs = vertical_strip_complements((2, 1))
        assert set(subs) == {(2, 1), (2,), (1, 1), (1,)}

    def test_hooks_and_f(self):
        assert f_lambda((3, 1)) == 3
        assert standard_count((3, 1), 5) == 15
        for n in range(1, 7):
            assert f_lambda((n,)) == 1
        assert hook_lengths((3, 1, 1)) == ((5, 2, 1), (2,), (1,))
        assert f_lambda((3, 1, 1)) == 6

    def test_f_against_brute_force(self):
        for n in range(7):
            for lam in partitions_of(n):
                cells = [(i, j) for i, p in enumerate(lam) for j in range(p)]
                count = 0
                for perm in itertools.permutations(range(1, n + 1)):
                    filling = dict(zip(cells, perm))
                    ok = all(
                        filling[(i, j)] < filling[(i, j + 1)]
                        for (i, j) in cells
                        if (i, j + 1) in filling
                    ) and all(
                        filling[(i, j)] < filling[(i + 1, j)]
                        for (i, j) in cells
                        if (i + 1, j) in filling
                    )
                    count += ok
                assert count == f_lambda(lam)


class TestGbs:
    def test_three_components(self):
        comps = gbs_decompose((4, 3, 3, 1), (3, 2, 1))
        assert comps is not None
        assert sorted(size for size, _, _ in comps) == [1, 1, 3]

    def test_empty(self):
        assert gbs_decompose((2, 1), (2, 1)) == ()

    def test_two_by_two_block(self):
        assert gbs_decompose((2, 2)) is None

    def test_border_strip_single_component(self):
        comps = gbs_decompose((3, 2), (1, 1))
        assert comps is not None and len(comps) == 1

    @pytest.mark.parametrize("lam,nu", [((2, 1), (3,)), ((2,), (1, 1)), ((1,), (1, 1))])
    def test_inner_not_contained(self, lam, nu):
        with pytest.raises(ValueError):
            gbs_decompose(lam, nu)
        with pytest.raises(ValueError):
            gbs_weight_k(lam, nu, 3)

    def test_matches_cell_search_up_to_nine(self):
        pairs = 0
        for n in range(10):
            for lam in partitions_of(n):
                for nu in sub_partitions(lam):
                    comps = gbs_decompose(lam, nu)
                    got = None if comps is None else sorted(comps)
                    assert got == bfs_strips(lam, nu), (lam, nu)
                    pairs += 1
        assert pairs == 1592

    def test_weight_figure_example(self):
        w = gbs_weight_k((4, 3, 3, 1), (3, 2, 1), 5)
        assert w == -Q * (Q - 1) ** 2

    def test_weight_empty(self):
        assert gbs_weight_k((3, 1), (3, 1), 1) == LaurentPoly.one("q")

    def test_weight_single_row(self):
        for k in range(1, 6):
            assert gbs_weight_k((k,), (), k) == LaurentPoly.monomial("q", k - 1)

    def test_weight_not_gbs(self):
        with pytest.raises(NotGbsError):
            gbs_weight_k((2, 2), (), 4)

    def test_weight_k_cases(self):
        # strip smaller than k gains a (q-1) q^(k-size-1) prefactor
        assert gbs_weight_k((4,), (), 5) == Q**4 - Q**3
        # size == k is the plain weight: one component of 2 rows and 2 columns
        lam, nu = (3, 2), (1, 1)
        assert gbs_weight_k(lam, nu, 3) == -Q
        # size > k vanishes
        assert gbs_weight_k(lam, nu, 2) == LaurentPoly.zero("q")

    def test_weight_k_memo_matches_decomposition(self):
        # every generalized border strip with |lambda| <= 9, the empty one included;
        # the key gathered by the walk gives the weight that the cell search and
        # gbs_decompose give
        strips = 0
        for n in range(10):
            for lam in partitions_of(n):
                for nu, key in gbs_complements(lam, 0, n):
                    size = n - sum(nu)
                    comps = bfs_strips(lam, nu)
                    assert key[3] == size, (lam, nu)
                    wt = weight_of_strips(comps)
                    plain = gbs_weight_k(lam, nu, max(size, 1))
                    assert fields(plain) == fields(wt), (lam, nu)
                    for k in range(max(size, 1), size + 3):
                        want = weight_k_of_strips(comps, size, k)
                        got = gbs_weight_k(lam, nu, k)
                        assert fields(got) == fields(want), (lam, nu, k)
                        assert gbs_weight_k(lam, nu, k) is got
                        assert _strip_weight(*key, k) is got, (lam, nu, k)
                    strips += 1
        assert strips == 1419

    def test_sub_partitions(self):
        subs = sub_partitions((2, 1))
        assert set(subs) == {(2, 1), (2,), (1, 1), (1,), ()}

    def test_gbs_complements_match_filtered_sub_partitions(self):
        # every strip-size window lo..hi, in sub_partitions order
        for n in range(10):
            for lam in partitions_of(n):
                strips = [
                    (nu, weight_key(comps))
                    for nu in sub_partitions(lam)
                    if (comps := gbs_decompose(lam, nu)) is not None
                ]
                for lo in range(n + 1):
                    for hi in range(lo, n + 1):
                        want = tuple(s for s in strips if lo <= s[1][3] <= hi)
                        assert gbs_complements(lam, lo, hi) == want, (lam, lo, hi)
                assert gbs_complements(lam, -1, n + 1) == tuple(strips)

    def test_gbs_weighted_matches_definition(self):
        # the memo that chi_mn reads: the 2x2-free nu of sub_partitions(lam)
        # with lo..hi cells removed, in that order, each with gbs_weight_k at
        # q = 2^k and that polynomial's l1 norm
        for n in range(9):
            for lam in partitions_of(n):
                strips = [nu for nu in sub_partitions(lam) if gbs_decompose(lam, nu) is not None]
                for hi in range(1, 9):
                    for lo in range(hi + 1):
                        weights = [
                            (nu, gbs_weight_k(lam, nu, hi))
                            for nu in strips
                            if lo <= n - sum(nu) <= hi
                        ]
                        for k in (4, 32):
                            want = tuple(
                                (nu, w.evaluate(2**k), sum(abs(c) for _, c in w.items()))
                                for nu, w in weights
                            )
                            assert gbs_weighted(lam, lo, hi, k) == want, (lam, lo, hi, k)

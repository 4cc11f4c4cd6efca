"""Seminormal matrix model on n-standard tableaux.

This is the package's independent oracle: the generators act explicitly on
the basis indexed by n-standard tableaux of shape lambda |- k (fillings with
k distinct labels from {1..n}, rows and columns strictly increasing), and
character values are recovered as exact traces of products of generator
matrices.

The basis vector of each tableau L is the one of Halverson's model
(Representations of the q-rook monoid, J. Algebra 2004) scaled by
q^(s(L)/2), s(L) the sum of L's labels.  That model relabels i+1 -> i and
i -> i+1 with the entry q^(1/2); the scaling conjugates every T_i by one
diagonal matrix, so it keeps every relation and trace and turns those two
entries into q and 1.  The other entries keep the label sum, so every entry
lies in Q(q).  Every trace must be a polynomial in Z[q]; anything else
signals a bug.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import InvariantViolation, ShapeTooLarge, WeightMismatch
from .exact import LaurentPoly, RationalFunction
from .shapes import Partition, standard_count

Tableau = Tuple[Tuple[int, ...], ...]

_Q = LaurentPoly.monomial("q", 1)
_RF_ONE = RationalFunction(1, 1, var="q")

# The largest |mu| the command line runs this method on.  The slowest trace
# of each weight from cold caches, on a 2-core host: 0.16 s at weight 7
# ((3,2,1) x (7)), 0.80 s at 8 ((3,2,1,1) x (8)), 5.2 s at 9 ((4,2,1,1) x
# (9)); the whole table takes 4.7 s at weight 7 and 52 s at weight 8.
MAX_TRACE_WEIGHT = 8


@lru_cache(maxsize=None)
def _syt(lam: Partition) -> Tuple[Tableau, ...]:
    """Standard Young tableaux of shape lam filled with 1..|lam|."""
    k = sum(lam)
    out: List[Tableau] = []
    filled = [0] * len(lam)
    rows: List[List[int]] = [[] for _ in lam]

    def rec(num: int):
        if num > k:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r in range(len(lam)):
            if filled[r] < lam[r] and (r == 0 or filled[r - 1] > filled[r]):
                filled[r] += 1
                rows[r].append(num)
                rec(num + 1)
                filled[r] -= 1
                rows[r].pop()

    rec(1)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_tableaux(lam: Partition, n: int) -> Tuple[Tableau, ...]:
    """All n-standard tableaux of shape lam, in a fixed deterministic order.

    Label sets run in lexicographic order; within a label set the standard
    fillings follow the row-insertion order of ``_syt``.
    """
    lam = tuple(lam)
    k = sum(lam)
    if k > n:
        raise ShapeTooLarge(f"shape {list(lam)} has {k} boxes but only {n} labels exist")
    base = _syt(lam)
    out: List[Tableau] = []
    for subset in itertools.combinations(range(1, n + 1), k):
        for t in base:
            out.append(tuple(tuple(subset[v - 1] for v in row) for row in t))
    if len(out) != standard_count(lam, n):
        raise InvariantViolation(
            f"{len(out)} tableaux of shape {list(lam)} on {n} labels, "
            f"expected {standard_count(lam, n)}"
        )
    return tuple(out)


@lru_cache(maxsize=None)
def _index(lam: Partition, n: int) -> Dict[Tableau, int]:
    return {t: i for i, t in enumerate(enumerate_tableaux(lam, n))}


def _positions(t: Tableau) -> Dict[int, Tuple[int, int]]:
    return {label: (r, c) for r, row in enumerate(t) for c, label in enumerate(row)}


def _replace_label(t: Tableau, old: int, new: int) -> Tableau:
    return tuple(tuple(new if v == old else v for v in row) for row in t)


def _swap_labels(t: Tableau, a: int, b: int) -> Tableau:
    return tuple(tuple(b if v == a else a if v == b else v for v in row) for row in t)


def _is_standard(t: Tableau) -> bool:
    for row in t:
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
    for r in range(len(t) - 1):
        for c in range(len(t[r + 1])):
            if t[r][c] >= t[r + 1][c]:
                return False
    return True


@lru_cache(maxsize=None)
def _gen_action(i: int, lam: Partition, n: int):
    """Sparse columns of T_i on the tableau basis.

    Column l lists (row, coefficient) pairs of T_i v_L for L = basis[l]:

        both i, i+1 in L:   (q-1)/(1 - q^(c_i - c_{i+1})) on the diagonal,
                            companion 1 + that on the swapped tableau when
                            the swap stays standard;
        only i+1 in L:      (q-1) diagonal plus q to the relabeling;
        only i in L:        1 to the relabeling;
        neither:            q on the diagonal.
    """
    basis = enumerate_tableaux(lam, n)
    index = _index(lam, n)
    rf_q = RationalFunction(_Q)
    rf_qm1 = RationalFunction(_Q - 1)
    cols = []
    for l, t in enumerate(basis):
        pos = _positions(t)
        has_i = i in pos
        has_j = (i + 1) in pos
        col: List[Tuple[int, RationalFunction]] = []
        if has_i and has_j:
            ri, ci = pos[i]
            rj, cj = pos[i + 1]
            delta = (ci - ri) - (cj - rj)
            diag = RationalFunction(_Q - 1, 1 - LaurentPoly.monomial("q", delta))
            col.append((l, diag))
            swapped = _swap_labels(t, i, i + 1)
            if _is_standard(swapped):
                col.append((index[swapped], diag + 1))
        elif has_j:
            col.append((l, rf_qm1))
            col.append((index[_replace_label(t, i + 1, i)], rf_q))
        elif has_i:
            col.append((index[_replace_label(t, i, i + 1)], _RF_ONE))
        else:
            col.append((l, rf_q))
        cols.append(tuple(col))
    return tuple(cols)


Vector = Dict[int, RationalFunction]


def _apply(action, vec: Vector) -> Vector:
    out: Vector = {}
    for l, c in vec.items():
        for r, a in action[l]:
            v = a * c
            cur = out.get(r)
            out[r] = v if cur is None else cur + v
    return {r: v for r, v in out.items() if not v.is_zero}


def quadratic_check(i: int, lam: Sequence[int], n: int) -> bool:
    """(T_i - q)(T_i + 1) = 0, and the braid relation with T_{i+1} when defined."""
    lam = tuple(lam)
    act = _gen_action(i, lam, n)
    dim = len(act)
    one_minus_q = RationalFunction(1 - _Q)
    rf_q = RationalFunction(_Q)
    for l in range(dim):
        v: Vector = {l: _RF_ONE}
        mv = _apply(act, v)
        mmv = _apply(act, mv)
        res = dict(mmv)
        for r, c in mv.items():
            cur = res.get(r)
            add = c * one_minus_q
            res[r] = add if cur is None else cur + add
        cur = res.get(l)
        res[l] = -rf_q if cur is None else cur - rf_q
        if any(not c.is_zero for c in res.values()):
            return False
    if i + 1 <= n - 1:
        act2 = _gen_action(i + 1, lam, n)
        for l in range(dim):
            v = {l: _RF_ONE}
            aba = _apply(act, _apply(act2, _apply(act, v)))
            bab = _apply(act2, _apply(act, _apply(act2, v)))
            if aba != bab:
                return False
    return True


def commute_check(i: int, j: int, lam: Sequence[int], n: int) -> bool:
    """T_i T_j = T_j T_i for |i - j| > 1."""
    lam = tuple(lam)
    act_i = _gen_action(i, lam, n)
    act_j = _gen_action(j, lam, n)
    for l in range(len(act_i)):
        v: Vector = {l: _RF_ONE}
        if _apply(act_i, _apply(act_j, v)) != _apply(act_j, _apply(act_i, v)):
            return False
    return True


def standard_word(mu: Sequence[int]) -> List[int]:
    """Generator indices of T_mu = T_{gamma_{mu_1}} (x) T_{gamma_{mu_2}} (x) ...

    Each part of size p contributes the run T_{b+1} ... T_{b+p-1} on its own
    block of consecutive letters.
    """
    word: List[int] = []
    offset = 0
    for part in mu:
        word.extend(range(offset + 1, offset + part))
        offset += part
    return word


def trace_standard_element(lam: Sequence[int], mu: Sequence[int]) -> LaurentPoly:
    """Exact trace of T_mu on the module of shape lambda; equals chi^lambda_mu.

    Raises InvariantViolation when the trace fails to land in Z[q] (which
    would signal a bug, not a legitimate outcome).
    """
    lam, mu = tuple(lam), tuple(mu)
    n = sum(mu)
    if sum(lam) > n:
        raise WeightMismatch(f"|lambda|={sum(lam)} exceeds |mu|={n}")
    basis = enumerate_tableaux(lam, n)
    word = standard_word(mu)
    actions = {i: _gen_action(i, lam, n) for i in set(word)}
    total = RationalFunction(0, 1, var="q")
    for idx in range(len(basis)):
        vec: Vector = {idx: _RF_ONE}
        for g in reversed(word):
            vec = _apply(actions[g], vec)
            if not vec:
                break
        c = vec.get(idx)
        if c is not None:
            total = total + c
    if not total.is_polynomial() or not total.num.is_ordinary():
        raise InvariantViolation(f"trace of T_{list(mu)} on {list(lam)} is not in Z[q]: {total}")
    return total.num

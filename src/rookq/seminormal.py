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
entries into q and 1.

The other entries keep the label sum.  Their only denominators are
q-integers [d]_q = 1 + q + ... + q^(d-1), so ``_gen_action`` stores
S_i = D_i * T_i, D_i the lcm of the [d]_q that T_i can meet (``_scale``),
and every entry is an integer Laurent polynomial.  A trace of S_mu is the
trace of T_mu times the product of the D_i, which it divides exactly; the
quotient must be a polynomial in Z[q], and anything else signals a bug.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import InvariantViolation, NonExactDivision, ShapeTooLarge, WeightMismatch
from .exact import LaurentPoly
from .shapes import Partition, standard_count

Tableau = Tuple[Tuple[int, ...], ...]

_Q = LaurentPoly.monomial("q", 1)
_ONE = LaurentPoly.one("q")

# The largest |mu| the command line runs this method on.  The slowest trace
# of each weight from cold caches, on a 2-core host: 0.07 s at weight 7
# ((3,2,1) x (7)), 0.45 s at 8 ((3,2,1,1) x (8)), 3.2 s at 9 ((4,2,1) x
# (9)); the whole table takes 2.1 s at weight 7 and 27 s at weight 8.
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


def _swap_labels(t: Tableau, a: int, b: int) -> Tableau:
    return tuple(tuple(b if v == a else a if v == b else v for v in row) for row in t)


@lru_cache(maxsize=None)
def _cyclotomic(e: int) -> LaurentPoly:
    """The cyclotomic polynomial Phi_e(q): q^e - 1 divided by Phi_d for d | e, d < e."""
    out = LaurentPoly("q", {e: 1, 0: -1})
    for d in range(1, e):
        if e % d == 0:
            out = out.exact_div(_cyclotomic(d))
    return out


@lru_cache(maxsize=None)
def _scale(i: int, lam: Partition) -> LaurentPoly:
    """D_i = lcm([1]_q, ..., [d]_q) = prod Phi_e(q) over 2 <= e <= d, d = min(i, h-1).

    Labels 1..i+1 fill a subdiagram of at most i+1 cells, so the contents of
    i and i+1 differ by at most i; inside lam they differ by at most h - 1,
    h = lam_1 + l(lam) - 1 the largest hook length.  So D_i * T_i has
    entries in Z[q^(+-1)].
    """
    d = min(i, lam[0] + len(lam) - 2) if lam else 0
    out = _ONE
    for e in range(2, d + 1):
        out = out * _cyclotomic(e)
    return out


@lru_cache(maxsize=None)
def _gen_action(i: int, lam: Partition, n: int):
    """Sparse columns of S_i = D_i * T_i on the tableau basis (see ``_scale``).

    Column l lists (row, coefficient) pairs of S_i v_L for L = basis[l].
    With delta = c_i - c_{i+1} the content difference of labels i and i+1,
    T_i has:

        both i, i+1 in L:   (q-1)/(1 - q^delta) on the diagonal, that is
                            -1/[delta]_q for delta > 0 and q^|delta|/[|delta|]_q
                            for delta < 0; companion 1 + that on the swapped
                            tableau when the swap stays standard: i and i+1
                            share a row or column exactly when |delta| = 1;
        only i+1 in L:      (q-1) diagonal plus q to the relabeling;
        only i in L:        1 to the relabeling;
        neither:            q on the diagonal.
    """
    basis = enumerate_tableaux(lam, n)
    index = _index(lam, n)
    scale = _scale(i, lam)
    scale_q = scale * _Q
    scale_qm1 = scale * (_Q - 1)
    cols = []
    for l, t in enumerate(basis):
        pos = _positions(t)
        has_i = i in pos
        has_j = (i + 1) in pos
        col: List[Tuple[int, LaurentPoly]] = []
        if has_i and has_j:
            ri, ci = pos[i]
            rj, cj = pos[i + 1]
            delta = (ci - ri) - (cj - rj)
            d = abs(delta)
            diag = scale.exact_div(LaurentPoly("q", dict.fromkeys(range(d), 1)))
            diag = -diag if delta > 0 else diag.times_power(d)
            col.append((l, diag))
            if d > 1:
                col.append((index[_swap_labels(t, i, i + 1)], scale + diag))
        elif has_j:
            col.append((l, scale_qm1))
            col.append((index[_swap_labels(t, i, i + 1)], scale_q))
        elif has_i:
            col.append((index[_swap_labels(t, i, i + 1)], scale))
        else:
            col.append((l, scale_q))
        cols.append(tuple(col))
    return tuple(cols)


Vector = Dict[int, LaurentPoly]


def _apply(action, vec: Vector) -> Vector:
    out: Vector = {}
    for l, c in vec.items():
        for r, a in action[l]:
            v = a * c
            cur = out.get(r)
            out[r] = v if cur is None else cur + v
    return {r: v for r, v in out.items() if not v.is_zero}


def quadratic_check(i: int, lam: Sequence[int], n: int) -> bool:
    """(T_i - q)(T_i + 1) = 0, and the braid relation with T_{i+1} when defined.

    On S_i = D_i T_i these read (S_i - q D_i)(S_i + D_i) = 0 and
    D_{i+1} S_i S_{i+1} S_i = D_i S_{i+1} S_i S_{i+1}.
    """
    lam = tuple(lam)
    act = _gen_action(i, lam, n)
    scale = _scale(i, lam)
    lin = scale * (1 - _Q)
    const = -(scale * scale * _Q)
    for l in range(len(act)):
        mv = _apply(act, {l: _ONE})
        res = _apply(act, mv)
        for r, c in mv.items():
            cur = res.get(r)
            add = c * lin
            res[r] = add if cur is None else cur + add
        cur = res.get(l)
        res[l] = const if cur is None else cur + const
        if any(not c.is_zero for c in res.values()):
            return False
    if i + 1 <= n - 1:
        act2 = _gen_action(i + 1, lam, n)
        scale2 = _scale(i + 1, lam)
        for l in range(len(act)):
            v = {l: _ONE}
            aba = _apply(act, _apply(act2, _apply(act, v)))
            bab = _apply(act2, _apply(act, _apply(act2, v)))
            if {r: c * scale2 for r, c in aba.items()} != {r: c * scale for r, c in bab.items()}:
                return False
    return True


def commute_check(i: int, j: int, lam: Sequence[int], n: int) -> bool:
    """T_i T_j = T_j T_i for |i - j| > 1."""
    lam = tuple(lam)
    act_i = _gen_action(i, lam, n)
    act_j = _gen_action(j, lam, n)
    for l in range(len(act_i)):
        v: Vector = {l: _ONE}
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
    total = LaurentPoly.zero("q")
    for idx in range(len(basis)):
        vec: Vector = {idx: _ONE}
        for g in reversed(word):
            vec = _apply(actions[g], vec)
            if not vec:
                break
        c = vec.get(idx)
        if c is not None:
            total = total + c
    # the trace of the product of the S_g is prod D_g times the trace of T_mu
    scale = _ONE
    for g in word:
        scale = scale * _scale(g, lam)
    try:
        trace = total.exact_div(scale)
    except NonExactDivision:
        trace = None
    if trace is None or not trace.is_ordinary():
        raise InvariantViolation(
            f"trace of T_{list(mu)} on {list(lam)} is not in Z[q]: ({total})/({scale})"
        )
    return trace

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
S_i = D_i * T_i, D_i the lcm of the [d]_q that T_i can meet (``_scale``):
these polynomial columns, all in Z[q], are the one definition of S_i, and
the relation checks compare products of them directly.

A trace T(q) of S_mu, which is chi(q) times the product of the D_g, is taken
in plain ints by Kronecker substitution (von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4): every entry is evaluated at B = 2^k (``_action_at``,
one shift per term), one k per shape and n (``_base_bits``).  Let ||S_g|| be
the largest column sum of the absolute coefficients of S_g's entries; no
column is zero, so ||S_g|| >= 1.  A standard word uses each generator at
most once, so dim times the product of ||S_g|| over g < n bounds ||T||_1
for every mu |- n, and B exceeds twice that.  So T is T(B)'s balanced
base-B digits (``_balanced_digits``), and it divides exactly by each D_g.
An entry with a negative exponent, a failed division or a quotient outside
Z[q] raises InvariantViolation: each signals a bug.

A tableau is stored as its content vector (``Tableau``): S_i reads the
content difference of labels i and i+1 off two entries, and relabels them by
swapping the two.  ``_image`` applies a product of generators to one basis
vector, with int or polynomial entries alike; the trace and every relation
check are built on it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import InvariantViolation, NonExactDivision, ShapeTooLarge, WeightMismatch
from .exact import LaurentPoly
from .shapes import Partition, standard_count

# An n-standard tableau as its content vector: entry l-1 is the content
# (column - row) of label l, or None when l is absent.  The addable cells of
# a partition have distinct contents, so the contents of the labels present,
# in order, fix the filling.
Tableau = Tuple[Optional[int], ...]
Vector = Dict[int, Union[int, LaurentPoly]]

_Q = LaurentPoly.monomial("q", 1)
_ONE = LaurentPoly.one("q")

# The largest |mu| the command line runs this method on.  The slowest trace
# of each weight from cold caches, on a 2-core host: 0.04 s at weight 8
# ((3,2,1) x (8)), 0.14-0.19 s at 9 ((4,2,1) x (9)), 0.9-1.3 s at 10
# ((4,2,1,1) x (10)); the whole table takes 2.8 s at weight 8 and 18-19 s
# at weight 9.
MAX_TRACE_WEIGHT = 9


@lru_cache(maxsize=None)
def enumerate_tableaux(lam: Partition, n: int) -> Tuple[Tableau, ...]:
    """All n-standard tableaux of shape lam, as content vectors, in a fixed order.

    Labels 1..n are placed in turn: each fills an addable cell of the shape
    built so far, rows top to bottom, or else is left out while enough labels
    remain for the cells still empty.  ``lam`` is a tuple, which the memo
    hashes; ``characters.compute_chi`` takes any sequence.
    """
    k = sum(lam)
    if k > n:
        raise ShapeTooLarge(f"shape {list(lam)} has {k} boxes but only {n} labels exist")
    out: List[Tableau] = []
    rows = [0] * len(lam)
    contents: List[Optional[int]] = []

    def rec():
        label = len(contents) + 1
        if label > n:
            out.append(tuple(contents))
            return
        for r, length in enumerate(rows):
            if length < lam[r] and (r == 0 or rows[r - 1] > length):
                rows[r] += 1
                contents.append(length - r)
                rec()
                contents.pop()
                rows[r] -= 1
        if n - label >= k - sum(rows):
            contents.append(None)
            rec()
            contents.pop()

    rec()
    if len(out) != standard_count(lam, n):
        raise InvariantViolation(
            f"{len(out)} tableaux of shape {list(lam)} on {n} labels, "
            f"expected {standard_count(lam, n)}"
        )
    return tuple(out)


@lru_cache(maxsize=None)
def _index(lam: Partition, n: int) -> Dict[Tableau, int]:
    return {t: i for i, t in enumerate(enumerate_tableaux(lam, n))}


@lru_cache(maxsize=None)
def _cyclotomic(e: int) -> LaurentPoly:
    """The cyclotomic polynomial Phi_e(q): q^e - 1 divided by Phi_d for d | e, d < e."""
    out = LaurentPoly("q", {e: 1, 0: -1})
    for d in range(1, e):
        if e % d == 0:
            out = out.exact_div(_cyclotomic(d))
    return out


def _max_gap(i: int, lam: Partition) -> int:
    """min(i, h - 1), h = lam_1 + l(lam) - 1: the contents of i and i+1 differ by at most this."""
    return min(i, lam[0] + len(lam) - 2) if lam else 0


@lru_cache(maxsize=None)
def _scale(i: int, lam: Partition) -> LaurentPoly:
    """D_i = lcm([1]_q, ..., [d]_q) = prod Phi_e(q) over 2 <= e <= d, d = min(i, h-1).

    Labels 1..i+1 fill a subdiagram of at most i+1 cells, so the contents of
    i and i+1 differ by at most i; inside lam they differ by at most h - 1,
    h = lam_1 + l(lam) - 1 the largest hook length.  So D_i * T_i has
    entries in Z[q].
    """
    out = _ONE
    for e in range(2, _max_gap(i, lam) + 1):
        out = out * _cyclotomic(e)
    return out


@lru_cache(maxsize=None)
def _gen_action(i: int, lam: Partition, n: int):
    """Sparse columns of S_i = D_i * T_i on the tableau basis (see ``_scale``).

    Column l lists (row, coefficient) pairs of S_i v_L for L = basis[l].
    With delta = L[i-1] - L[i] the content difference of labels i and i+1,
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
    index = _index(lam, n)
    scale = _scale(i, lam)
    scale_q = scale * _Q
    scale_qm1 = scale * (_Q - 1)
    # delta -> (diagonal entry, companion), one division D_i / [d]_q per d
    entries: Dict[int, Tuple[LaurentPoly, LaurentPoly]] = {}
    for d in range(1, _max_gap(i, lam) + 1):
        quot = scale.exact_div(LaurentPoly("q", dict.fromkeys(range(d), 1)))
        for delta, diag in ((d, -quot), (-d, quot.times_power(d))):
            entries[delta] = (diag, scale + diag)
    cols = []
    for l, t in enumerate(enumerate_tableaux(lam, n)):
        a, b = t[i - 1], t[i]
        swapped = t[: i - 1] + (b, a) + t[i + 1 :]  # labels i and i+1 exchanged
        if a is not None and b is not None:
            diag, companion = entries[a - b]
            col = [(l, diag)]
            if abs(a - b) > 1:
                col.append((index[swapped], companion))
        elif b is not None:
            col = [(l, scale_qm1), (index[swapped], scale_q)]
        elif a is not None:
            col = [(index[swapped], scale)]
        else:
            col = [(l, scale_q)]
        cols.append(tuple(col))
    return tuple(cols)


@lru_cache(maxsize=None)
def _base_bits(lam: Partition, n: int) -> int:
    """The least k with 2^k > 2 * dim * prod_{g<n} ||S_g|| (see the module docstring)."""
    bound = len(enumerate_tableaux(lam, n))
    for g in range(1, n):
        bound *= max(sum(abs(c) for _, p in col for _, c in p.items()) for col in _gen_action(g, lam, n))
    return (2 * bound).bit_length()


@lru_cache(maxsize=None)
def _action_at(i: int, lam: Partition, n: int):
    """S_i with each entry evaluated at q = 2^k, k = ``_base_bits(lam, n)``."""
    k = _base_bits(lam, n)
    values: Dict[LaurentPoly, int] = {}  # the columns share a few entry objects
    cols = []
    for col in _gen_action(i, lam, n):
        for _, p in col:
            if p not in values:
                if not p.is_ordinary():
                    raise InvariantViolation(f"S_{i} on {list(lam)}, n={n}, has an entry not in Z[q]: {p}")
                values[p] = sum(c << (h * k) for h, c in p.items())
        cols.append(tuple((r, values[p]) for r, p in col))
    return tuple(cols)


def _apply(action, vec: Vector) -> Vector:
    out: Vector = {}
    for l, c in vec.items():
        for r, a in action[l]:
            v = a * c
            cur = out.get(r)
            out[r] = v if cur is None else cur + v
    return {r: v for r, v in out.items() if v}


def _image(actions, l: int) -> Vector:
    """(A_1 A_2 ... A_m) v_l for actions = [A_1, ..., A_m], A_m applied first."""
    vec: Vector = {l: 1}
    for action in reversed(actions):
        vec = _apply(action, vec)
    return vec


def quadratic_check(i: int, lam: Sequence[int], n: int) -> bool:
    """(T_i - q)(T_i + 1) = 0, and the braid relation with T_{i+1} when defined.

    On S_i = D_i T_i these read S_i^2 = (q-1) D_i S_i + q D_i^2 and
    D_{i+1} S_i S_{i+1} S_i = D_i S_{i+1} S_i S_{i+1}.
    """
    lam = tuple(lam)
    a = _gen_action(i, lam, n)
    scale = _scale(i, lam)
    lin, const = scale * (_Q - 1), scale * scale * _Q
    for l in range(len(a)):
        rhs = {r: v * lin for r, v in _image([a], l).items()}
        rhs[l] = rhs.get(l, 0) + const
        if _image([a, a], l) != {r: v for r, v in rhs.items() if v}:
            return False
    if i + 1 <= n - 1:
        b = _gen_action(i + 1, lam, n)
        scale_b = _scale(i + 1, lam)
        for l in range(len(a)):
            aba, bab = _image([a, b, a], l), _image([b, a, b], l)
            if {r: v * scale_b for r, v in aba.items()} != {r: v * scale for r, v in bab.items()}:
                return False
    return True


def commute_check(i: int, j: int, lam: Sequence[int], n: int) -> bool:
    """T_i T_j = T_j T_i for |i - j| > 1."""
    lam = tuple(lam)
    a, b = _gen_action(i, lam, n), _gen_action(j, lam, n)
    return all(_image([a, b], l) == _image([b, a], l) for l in range(len(a)))


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


def _balanced_digits(value: int, k: int) -> LaurentPoly:
    """The polynomial T with T(2^k) = value and every coefficient in [-2^(k-1), 2^(k-1)).

    Such a T is unique: its coefficients are value's balanced base-2^k
    digits.  Each step shrinks |value| when k >= 2.
    """
    mask, half = (1 << k) - 1, 1 << (k - 1)
    terms: Dict[int, int] = {}
    h = 0
    while value:
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        terms[h] = digit
        value = (value - digit) >> k
        h += 1
    return LaurentPoly("q", terms)


def trace_standard_element(lam: Sequence[int], mu: Sequence[int]) -> LaurentPoly:
    """Exact trace of T_mu on the module of shape lambda; equals chi^lambda_mu.

    Raises InvariantViolation when the trace fails to land in Z[q] (which
    would signal a bug, not a legitimate outcome).
    """
    lam, mu = tuple(lam), tuple(mu)
    n = sum(mu)
    if sum(lam) > n:
        raise WeightMismatch(f"|lambda|={sum(lam)} exceeds |mu|={n}")
    word = standard_word(mu)
    actions = [_action_at(g, lam, n) for g in word]
    value = sum(_image(actions, l).get(l, 0) for l in range(len(enumerate_tableaux(lam, n))))
    total = _balanced_digits(value, _base_bits(lam, n))
    # the trace of the product of the S_g is prod D_g times the trace of T_mu
    trace: Optional[LaurentPoly] = total
    try:
        for g in word:
            trace = trace.exact_div(_scale(g, lam))
    except NonExactDivision:
        trace = None
    if trace is None or not trace.is_ordinary():
        scale = math.prod((_scale(g, lam) for g in word), start=_ONE)
        raise InvariantViolation(
            f"trace of T_{list(mu)} on {list(lam)} is not in Z[q]: ({total})/({scale})"
        )
    return trace

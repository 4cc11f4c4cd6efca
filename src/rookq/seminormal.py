"""Seminormal matrix model on n-standard tableaux.

This is the package's independent oracle: the generators act on the basis
of n-standard tableaux of shape lambda |- k (fillings with k distinct labels
from {1..n}, rows and columns strictly increasing), and character values
are exact traces of products of generator matrices.

The basis vector of each tableau L is the one of Halverson's model
(Representations of the q-rook monoid, J. Algebra 2004) scaled by
q^(s(L)/2), s(L) the sum of L's labels.  That model relabels i+1 -> i and
i -> i+1 with the entry q^(1/2); the scaling conjugates every T_i by one
diagonal matrix, so it keeps every relation and trace and turns those two
entries into q and 1.  The other entries keep the label sum.  Their only
denominators are q-integers [d]_q = 1 + q + ... + q^(d-1), so
``_gen_action`` builds S_i = D_i * T_i, D_i the lcm of the [d]_q that T_i
can meet (``_scale``): its columns in Z[q] are the one definition of S_i.

All else runs in plain ints by Kronecker substitution (von zur Gathen and
Gerhard, Modern Computer Algebra, 8.4): ``_model`` evaluates every S_g at
B = 2^k, one k per shape and n, and keeps no polynomial entry.  Let N_g be
the largest column l1 norm of S_g (no column is zero, so N_g >= 1) and d_g
the l1 norm of D_g.  B exceeds twice each of dim * prod N_g, which bounds
a trace T(q) = chi(q) prod D_g of S_mu (a standard word uses each generator
at most once); (N_i + d_i)^2 for S_i^2 = (q-1) D_i S_i + q D_i^2;
d_{i+1} N_i^2 N_{i+1} + d_i N_{i+1}^2 N_i for the braid relation; and
2 N_i N_j for commutation.  A polynomial of l1 norm below B/2 is zero iff
its value at B is, so each relation is checked at B, and T is T(B)'s
balanced base-B digits (``exact.balanced_digits``), divided once by prod D_g
(``_divisor``): exact exactly when dividing by each D_g in turn is.
An entry with a negative exponent, a failed division or a quotient outside
Z[q] raises InvariantViolation: each signals a bug.

A tableau is stored as its content vector (``Tableau``): S_i reads the
content difference of labels i and i+1 off two entries, and relabels them by
swapping the two.  ``_model`` stores each S_g once, by columns; ``_image``
applies a product of generators to one basis vector, and every relation
check is built on it.

The traces of one shape come a whole row at a time (``_traces``).  The
standard words of all mu |- n form a prefix tree with p(n) nodes: a prefix of
the word of (mu_1, ..., mu_j, ...) is the word of (mu_1, ..., mu_{j-1}, m,
1, ..., 1) with m <= mu_j, again a partition of n.  For each basis vector l
one walk carries the row vector e_l S_{w_1} ... S_{w_j} down the tree, words
in lexicographic order so that each parent comes before its children, and
adds its entry l into the total of the word's mu.  A word that another word
extends costs one sparse vector-matrix product; a leaf only reads entry l,
as a dot product with column l of its last generator.
``trace_standard_element`` reads one total and divides it.  A composition
mu reads the total of its sorted parts: T_mu for the composition lies in
H_n(q), inside R_n(q), and has minimal length in its conjugacy class, so
every character takes the same value on it as on T of the sorted word
(Geck and Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
Algebras, 2000, 8.2).
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InvariantViolation, NonExactDivision, ShapeTooLarge
from .exact import LaurentPoly, balanced_digits
from .shapes import Partition, _checked, standard_count

# An n-standard tableau as its content vector: entry l-1 is the content
# (column - row) of label l, or None when l is absent.  The addable cells of
# a partition have distinct contents, so the contents of the labels present,
# in order, fix the filling.
Tableau = Tuple[Optional[int], ...]
# A vector on the tableau basis at q = 2^k: ``_model`` evaluates every S_g there.
Vector = Dict[int, int]

_Q = LaurentPoly.monomial("q", 1)
_ONE = LaurentPoly.one("q")

# The largest |mu| the command line runs this method on.  A trace computes
# its whole row (``_traces``), so one cell costs about as much as all of them.
# On a 2-core Xeon, Python 3.11, on a slow day, the slowest trace from cold
# caches takes 0.04 s at weight 8, 0.17 s at weight 9 ((4,2,1) x (9)) and
# 1.4-1.9 s at weight 10 ((4,2,1,1) x (10)); the cold CLI table takes
# 0.6-0.9 s (26 MB peak RSS) at weight 8 and 3.2-3.9 s (62 MB) at weight 9.
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
def _scale(d: int) -> LaurentPoly:
    """D = lcm([1]_q, ..., [d]_q) = prod Phi_e(q) over 2 <= e <= d.

    S_i = D_i * T_i takes d = ``_max_gap(i, lam)``: labels 1..i+1 fill a
    subdiagram of at most i+1 cells, so the contents of i and i+1 differ by
    at most i; inside lam they differ by at most h - 1, h = lam_1 + l(lam) - 1
    the largest hook length.  So D_i * T_i has entries in Z[q].
    """
    out = _ONE
    for e in range(2, d + 1):
        out = out * _cyclotomic(e)
    return out


@lru_cache(maxsize=None)
def _entries(d: int):
    """The distinct entries of S_i for gap d = ``_max_gap(i, lam)``: delta ->
    (diagonal, companion), one division D / [|delta|]_q per |delta| <= d, then
    D, D * q and D * (q-1)."""
    scale = _scale(d)
    table: Dict[int, Tuple[LaurentPoly, LaurentPoly]] = {}
    for e in range(1, d + 1):
        quot = scale.exact_div(LaurentPoly("q", dict.fromkeys(range(e), 1)))
        for delta, diag in ((e, -quot), (-e, quot.times_power(e))):
            table[delta] = (diag, scale + diag)
    return table, scale, scale * _Q, scale * (_Q - 1)


@lru_cache(maxsize=None)
def _divisor(gaps: Tuple[int, ...]) -> LaurentPoly:
    """prod D_g over a word's gaps, sorted: T(q) of S_mu is chi(q) times this."""
    return math.prod(map(_scale, gaps), start=_ONE)


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
    basis = enumerate_tableaux(lam, n)
    index = {t: l for l, t in enumerate(basis)}
    table, scale, scale_q, scale_qm1 = _entries(_max_gap(i, lam))
    cols = []
    for l, t in enumerate(basis):
        a, b = t[i - 1], t[i]
        swapped = t[: i - 1] + (b, a) + t[i + 1 :]  # labels i and i+1 exchanged
        if a is not None and b is not None:
            diag, companion = table[a - b]
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
def _model(lam: Partition, n: int):
    """k and S_1, ..., S_{n-1} at q = 2^k, k the least that holds every trace and
    relation residue (see the module docstring).  One walk over each S_g takes
    its column norms, then each distinct entry is evaluated once."""
    gens, norms, seen = [], [], {}  # id -> (entry, l1 norm): the columns share a few entries
    for i in range(1, n):
        cols, top = _gen_action(i, lam, n), 0
        for col in cols:
            s = 0
            for _, p in col:
                if id(p) not in seen:
                    if not p.is_ordinary():
                        raise InvariantViolation(f"S_{i} on {list(lam)}, n={n}: entry {p} not in Z[q]")
                    seen[id(p)] = p, sum(abs(c) for _, c in p.items())
                s += seen[id(p)][1]
            top = max(top, s)
        gens.append(cols)
        norms.append(top)
    scales = [sum(abs(c) for _, c in _scale(_max_gap(i, lam)).items()) for i in range(1, n)]
    bound = len(enumerate_tableaux(lam, n)) * math.prod(norms)
    for g, (s, t, d, e) in enumerate(zip(norms, norms[1:] + [0], scales, scales[1:] + [0])):
        braid = e * s * s * t + d * t * t * s  # 0 for S_{n-1}, which has no braid relation
        bound = max(bound, (s + d) ** 2, braid, *(2 * s * u for u in norms[g + 2 :]))
    k = (2 * bound).bit_length()
    values = {key: p.evaluate(1 << k) for key, (p, _) in seen.items()}
    return k, tuple(tuple(tuple((r, values[id(p)]) for r, p in col) for col in cols) for cols in gens)


def _apply(action, vec: Vector) -> Vector:
    """Entry l of vec spread by action[l], its (index, value) pairs: a matrix
    by its columns times a column vector, or a row vector times a matrix by
    its rows."""
    out: Vector = {}
    for l, c in vec.items():
        for r, a in action[l]:
            v = a * c
            cur = out.get(r)
            out[r] = v if cur is None else cur + v
    return out


def _image(actions, l: int) -> Vector:
    """(A_1 A_2 ... A_m) v_l for actions = [A_1, ..., A_m], A_m applied first,
    with its zero entries dropped, so that equal images are equal dicts."""
    vec: Vector = {l: 1}
    for action in reversed(actions):
        vec = _apply(action, vec)
    return {r: v for r, v in vec.items() if v}


def _word_tree(n: int) -> List[Tuple[Partition, int, int, bool]]:
    """The standard words of all mu |- n as a prefix tree, in lexicographic order.

    Node i is (mu, g, parent, extended): its word is the parent's with the
    generator g appended (g = 0 and parent = -1 at the root, the empty word of
    (1^n)), and ``extended`` tells whether another word extends it.  A word
    grows by one letter either by lengthening its last block of consecutive
    generators, while that part stays at most the one before it, or by
    opening a block of two after it.  Private, so that the seminormal route
    shares no enumeration of partitions with the other routes.
    """
    nodes: List[Tuple[Partition, int, int, bool]] = []

    def visit(parts: Partition, g: int, parent: int) -> None:
        end, here = sum(parts), len(nodes)
        grow = bool(parts) and (len(parts) == 1 or parts[-1] < parts[-2]) and end < n
        opens = end + 2 <= n
        nodes.append((parts + (1,) * (n - end), g, parent, grow or opens))
        if grow:
            visit(parts[:-1] + (parts[-1] + 1,), end, here)
        if opens:
            visit(parts + (2,), end + 1, here)

    visit((), 0, -1)
    return nodes


@lru_cache(maxsize=None)
def _traces(lam: Partition, n: int) -> Tuple[int, Mapping[Partition, int]]:
    """k and, for every mu |- n, the trace of S_mu = prod S_g over mu's standard
    word at q = 2^k: one walk of ``_word_tree(n)`` per basis vector (see the
    module docstring).  The row vectors need the rows of each S_g, transposed
    here from ``_model``'s columns and dropped on return."""
    k, gens = _model(lam, n)
    rows = [[[] for _ in cols] for cols in gens]
    for cols, out in zip(gens, rows):
        for l, col in enumerate(cols):
            for r, a in col:
                out[r].append((l, a))
    tree = _word_tree(n)
    totals = dict.fromkeys((mu for mu, _, _, _ in tree), 0)
    dim = len(enumerate_tableaux(lam, n))
    totals[tree[0][0]] = dim  # the empty word: entry l of e_l is 1 for every l
    vecs: List[Vector] = [{}] * len(tree)
    for l in range(dim):
        vecs[0] = {l: 1}
        for node in range(1, len(tree)):
            mu, g, parent, extended = tree[node]
            if extended:
                vec = vecs[node] = _apply(rows[g - 1], vecs[parent])
                value = vec.get(l, 0)
            else:  # a leaf: its parent's row vector times column l of S_g
                get, value = vecs[parent].get, 0
                for r, a in gens[g - 1][l]:
                    value += get(r, 0) * a
            totals[mu] += value
    return k, MappingProxyType(totals)  # read-only: the memo hands it to every caller


def quadratic_check(i: int, lam: Sequence[int], n: int) -> bool:
    """(T_i - q)(T_i + 1) = 0, and the braid relation with T_{i+1} when defined.

    On S_i = D_i T_i these read S_i^2 = (q-1) D_i S_i + q D_i^2 and
    D_{i+1} S_i S_{i+1} S_i = D_i S_{i+1} S_i S_{i+1}, compared at q = 2^k.
    """
    lam = tuple(lam)
    k, gens = _model(lam, n)
    a, scale = gens[i - 1], _scale(_max_gap(i, lam)).evaluate(1 << k)
    lin, const = scale * ((1 << k) - 1), (scale * scale) << k
    for l in range(len(a)):
        rhs = {r: v * lin for r, v in _image([a], l).items()}
        rhs[l] = rhs.get(l, 0) + const
        if _image([a, a], l) != {r: v for r, v in rhs.items() if v}:
            return False
    if i + 1 <= n - 1:
        b, scale_b = gens[i], _scale(_max_gap(i + 1, lam)).evaluate(1 << k)
        for l in range(len(a)):
            aba, bab = _image([a, b, a], l), _image([b, a, b], l)
            if {r: v * scale_b for r, v in aba.items()} != {r: v * scale for r, v in bab.items()}:
                return False
    return True


def commute_check(i: int, j: int, lam: Sequence[int], n: int) -> bool:
    """T_i T_j = T_j T_i for |i - j| > 1, compared at q = 2^k."""
    gens = _model(tuple(lam), n)[1]
    a, b = gens[i - 1], gens[j - 1]
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


def trace_standard_element(lam: Sequence[int], mu: Sequence[int]) -> LaurentPoly:
    """Exact trace of T_mu on the module of shape lambda; equals chi^lambda_mu.

    The first call on a shape and weight computes the traces of its whole
    row (``_traces``); each call then decodes and divides one total.  A
    composition mu takes the total of its sorted parts, since T_mu lies in
    H_n(q) and has minimal length in its conjugacy class, where every
    character of H_n(q) takes one value (Geck and Pfeiffer 2000, 8.2).
    Raises ValueError or WeightMismatch on a malformed cell, as every route
    does, and InvariantViolation when the trace fails to land in Z[q] (which
    would signal a bug, not a legitimate outcome).
    """
    lam, mu = _checked(lam, mu)
    part = tuple(sorted(mu, reverse=True))
    k, totals = _traces(lam, sum(part))
    total = balanced_digits(totals[part], k)
    # the trace of the product of the S_g is prod D_g times the trace of T_mu
    scale = _divisor(tuple(sorted(_max_gap(g, lam) for g in standard_word(part))))
    try:
        trace: Optional[LaurentPoly] = total.exact_div(scale)
    except NonExactDivision:
        trace = None
    if trace is None or not trace.is_ordinary():
        raise InvariantViolation(
            f"trace of T_{list(mu)} on {list(lam)} is not in Z[q]: ({total})/({scale})"
        )
    return trace

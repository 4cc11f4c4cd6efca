"""Partitions, compositions and generalized border strips.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  Compositions are tuples of nonnegative integers and may
retain zeros: the length function ``nonzero_length`` counts nonzero entries
only, which is the convention every weight formula in this package relies on.

All enumeration orders are fixed and deterministic so that emitted tables and
golden files are stable across runs.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .errors import NonExactDivision, NotGbsError
from .exact import LaurentPoly

Partition = Tuple[int, ...]
Composition = Tuple[int, ...]


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order: (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(m: int, maxpart: int) -> List[Partition]:
        if m == 0:
            return [()]
        out: List[Partition] = []
        for first in range(min(m, maxpart), 0, -1):
            out.extend((first,) + rest for rest in rec(m - first, first))
        return out

    return tuple(rec(n, n))


def partitions_up_to(n: int) -> Tuple[Partition, ...]:
    """Partitions of every weight k <= n, heaviest first."""
    out: List[Partition] = []
    for k in range(n, -1, -1):
        out.extend(partitions_of(k))
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: lam'_i = #{j : lam_j >= i}."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def multiplicities(lam: Partition) -> dict:
    m: dict = {}
    for p in lam:
        m[p] = m.get(p, 0) + 1
    return m


def z_lambda(lam: Partition) -> int:
    """Centralizer size prod_i i^{m_i} * m_i!."""
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part**m * math.factorial(m)
    return z


def subcompositions(mu: Sequence[int], k: int) -> Tuple[Composition, ...]:
    """All compositions tau with 0 <= tau_i <= mu_i and sum(tau) = k.

    The result keeps the full length of mu (zeros included) and is ordered
    lexicographically.  Empty when k > sum(mu) or k < 0.
    """
    mu = tuple(mu)
    if k < 0 or k > sum(mu):
        return ()
    out: List[Composition] = []

    def rec(i: int, remaining: int, prefix: Tuple[int, ...]):
        if i == len(mu):
            if remaining == 0:
                out.append(prefix)
            return
        tail_capacity = sum(mu[i + 1 :])
        lo = max(0, remaining - tail_capacity)
        hi = min(mu[i], remaining)
        for v in range(lo, hi + 1):
            rec(i + 1, remaining - v, prefix + (v,))

    rec(0, k, ())
    return tuple(out)


def sort_to_partition(comp: Sequence[int]) -> Partition:
    """Arrange the nonzero parts of a composition in weakly decreasing order."""
    return tuple(sorted((p for p in comp if p > 0), reverse=True))


def nonzero_length(comp: Sequence[int]) -> int:
    """l(tau) of a composition: the number of nonzero parts."""
    return sum(1 for p in comp if p)


def comp_sub(mu: Sequence[int], tau: Sequence[int]) -> Composition:
    """Componentwise difference mu - tau (tau implicitly zero-padded)."""
    tau = tuple(tau) + (0,) * (len(mu) - len(tau))
    diff = tuple(m - t for m, t in zip(mu, tau))
    if any(d < 0 for d in diff):
        raise ValueError(f"{tau} is not contained in {tuple(mu)}")
    return diff


@lru_cache(maxsize=None)
def border_counts(mu: Composition, k: int) -> Counter:
    """The number of tau in C(mu; k) in each class (sort(mu - tau), l(tau)).

    The sums over C(mu; k) depend on tau only through its class, so they run
    over these counts.  The Counter is shared by every caller: never modify it.
    """
    counts: Counter = Counter()
    for tau in subcompositions(mu, k):
        counts[sort_to_partition(comp_sub(mu, tau)), nonzero_length(tau)] += 1
    return counts


def hook_lengths(lam: Partition) -> Tuple[Tuple[int, ...], ...]:
    """Table h_{ij} = lam_i + lam'_j - i - j + 1 (1-indexed in the formula)."""
    conj = conjugate(lam)
    return tuple(
        tuple(lam[i] + conj[j] - (i + 1) - (j + 1) + 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


def f_lambda(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    prod = 1
    for row in hook_lengths(lam):
        for h in row:
            prod *= h
    f, rem = divmod(math.factorial(n), prod)
    if rem:
        raise NonExactDivision(f"hook length product {prod} does not divide {n}!")
    return f


def standard_count(lam: Partition, n: int) -> int:
    """Number of n-standard tableaux of shape lam |- k: C(n,k) * f_lam."""
    return math.comb(n, sum(lam)) * f_lambda(lam)


def gbs_decompose(
    lam: Partition, nu: Partition = ()
) -> Optional[Tuple[Tuple[int, int, int], ...]]:
    """The connected components of lam/nu as (cells, rows, cols), top to bottom.

    Returns None when lam/nu contains a 2x2 block of cells, i.e. when it is
    not a generalized border strip, and zero components when nu = lam.
    Raises ValueError when nu is not contained in lam.

    Row i holds the cells of columns nu_i .. lam_i - 1, and rows i and i+1
    share the columns nu_i .. lam_{i+1} - 1.  So lam/nu is 2x2-free iff
    nu_i >= lam_{i+1} - 1 for every i, and a component is a maximal run of
    non-empty rows linked by nu_i < lam_{i+1}.  A run from row a to row b
    spans b - a + 1 rows and the columns nu_b .. lam_a - 1.
    """
    rows = len(lam)
    if any(nu[rows:]) or any(v > o for o, v in zip(lam, nu)):
        raise ValueError(f"{list(nu)} is not contained in {list(lam)}")
    nu = tuple(nu) + (0,) * (rows - len(nu))
    comps: List[Tuple[int, int, int]] = []
    top = size = 0
    for i, (o, v) in enumerate(zip(lam, nu)):
        below = lam[i + 1] if i + 1 < rows else 0
        if v < below - 1:
            return None
        if v == o:
            top = i + 1
            continue
        size += o - v
        if v >= below:
            comps.append((size, i - top + 1, lam[top] - v))
            top, size = i + 1, 0
    return tuple(comps)


def gbs_weight_k(lam: Partition, nu: Partition, k: int) -> LaurentPoly:
    """The k-bounded weight wt(lam/nu; k, q), a polynomial in q.

    The plain weight of theta = lam/nu is
    wt = (q-1)^(m-1) * prod (-1)^(r_i - 1) q^(c_i - 1) over its m components
    of r_i rows and c_i columns, and 1 for the empty shape.  Cases on the
    strip size |theta|: q^(k-1)*wt for an empty shape, (q-1)*q^(k-|theta|-1)*wt
    when 0 < |theta| < k, wt itself at |theta| = k, and 0 beyond k.

    Up to k cells the weight is +-q^a (q-1)^b, fixed by the component count,
    the parity of the row total, the column total, the size and k.
    ``_strip_weight`` builds it by one closed form, memoised on those five
    values.  ``chi_mn`` calls neither: ``gbs_weighted`` has its own closed
    form, so this walk of lam/nu is the second derivation of the weights
    that ``mn-adjoint-identity`` uses.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    comps = gbs_decompose(lam, nu)
    if comps is None:
        raise NotGbsError(f"{list(lam)}/{list(nu)} is not a generalized border strip")
    size = rows = cols = 0
    for cells, r, c in comps:
        size += cells
        rows += r - 1
        cols += c - 1
    if size > k:
        return LaurentPoly.zero("q")
    return _strip_weight(len(comps), rows % 2, cols, size, k)


@lru_cache(maxsize=None)
def _strip_weight(comps: int, odd: int, cols: int, size: int, k: int) -> LaurentPoly:
    """(-1)^odd * q^a * (q-1)^b, the weight wt(theta; k, q) of a strip of
    ``comps`` components with column total ``cols`` and 0 <= size <= k cells.

    At size = k it is wt(theta; q): b = comps - 1 and a = cols, or 1 for the
    empty shape.  An empty shape below k gives q^(k-1); otherwise 0 < size <
    k adds one factor (q-1) and shifts by q^(k-size-1).
    """
    if size == k:
        b, a = max(comps - 1, 0), cols
    elif size == 0:
        b, a = 0, k - 1
    else:
        b, a = comps, cols + k - size - 1
    sign = -1 if odd else 1
    # (q-1)^b = sum_j C(b, j) q^j (-1)^(b-j)
    return LaurentPoly._make(
        "q", {a + j: sign * (-1) ** (b - j) * math.comb(b, j) for j in range(b + 1)}
    )


def sub_partitions(lam: Partition) -> Tuple[Partition, ...]:
    """All partitions nu with nu_i <= lam_i for every i (zeros dropped)."""
    out: List[Partition] = []

    def rec(i: int, cap: int, prefix: Tuple[int, ...]):
        if i == len(lam):
            out.append(prefix)
            return
        for v in range(min(cap, lam[i]), -1, -1):
            if v == 0:
                out.append(prefix)
                return
            rec(i + 1, v, prefix + (v,))

    rec(0, lam[0] if lam else 0, ())
    return tuple(out)


def gbs_complements(lam: Partition, lo: int, hi: int) -> Tuple[Tuple[Partition, tuple], ...]:
    """Each nu in lam with lam/nu a generalized border strip of lo..hi cells,
    paired with the key (comps, odd, cols, size) of its ``_strip_weight``.

    The same nu, in the same order, as ``sub_partitions(lam)`` filtered by
    strip size and ``gbs_decompose``, without building the rest.  nu is built
    row by row.  lam/nu is 2x2-free iff nu_i >= lam_{i+1} - 1 for every row i
    (see ``gbs_decompose``), so nu_i goes no lower than that, nor so low that
    more than hi cells are removed; and no higher than leaves lo reachable,
    since rows i+1.. can give up at most the hook length of their first cell.
    The key is gathered on the same walk: a run from row ``top`` closes at
    row i where nu_i >= lam_{i+1}, one component of i - top + 1 rows and
    lam_top - nu_i columns; the next run starts below it, as below an empty row.
    ``gbs_weighted`` memoises the result with each key's weight for ``chi_mn``.
    """
    rows = len(lam)
    # the rows chosen so far: (nu, cells removed, last part, first row of the
    # open run, components closed, parity of their row total, column total)
    layer = [((), 0, lam[0] if lam else 0, 0, 0, 0, 0)]
    for i, part in enumerate(lam):
        below = lam[i + 1] if i + 1 < rows else 0
        floor = below - 1 if below else 0
        later = below + rows - 2 - i if below else 0
        grown = []
        for nu, removed, cap, top, comps, odd, cols in layer:
            # min(cap, part, ...) without the call: this loop is hot in chi_mn
            high = removed + part + later - lo
            if high > cap:
                high = cap
            if high > part:
                high = part
            for v in range(high, floor - 1, -1):
                r = removed + part - v
                if r > hi:
                    break
                sub = nu + (v,) if v else nu
                if v == part:
                    grown.append((sub, r, v, i + 1, comps, odd, cols))
                elif v >= below:
                    grown.append(
                        (sub, r, v, i + 1, comps + 1, odd ^ (i - top) & 1, cols + lam[top] - v - 1)
                    )
                else:
                    grown.append((sub, r, v, top, comps, odd, cols))
        layer = grown
    return tuple((nu, (comps, odd, cols, r)) for nu, r, _, _, comps, odd, cols in layer if r >= lo)


@lru_cache(maxsize=None)
def gbs_weighted(lam: Partition, lo: int, hi: int, k: int) -> Tuple[tuple, ...]:
    """``gbs_complements(lam, lo, hi)`` with each weight wt(lam/nu; hi, q) at
    q = 2^k and its l1 norm: one step of ``chi_mn``, so each strip set is
    walked once per table.  For hi >= 1 the weight is +-q^a (q-1)^b of norm
    2^b: b = comps - 1 and a = cols for a strip of hi cells, and b = comps and
    a = cols + hi - size - 1 for a shorter one, the empty strip included.
    """
    base = (1 << k) - 1
    out = []
    for nu, (comps, odd, cols, size) in gbs_complements(lam, lo, hi):
        b, a = (comps, cols + hi - size - 1) if size < hi else (comps - 1, cols)
        weight = base**b << k * a
        out.append((nu, -weight if odd else weight, 1 << b))
    return tuple(out)


@lru_cache(maxsize=None)
def vertical_strip_complements(lam: Partition) -> Tuple[Partition, ...]:
    """All partitions nu contained in lam with lam/nu a vertical strip.

    Memoised: ``chi_iterative`` asks for the strips of one lambda^[1] once
    per mu.
    """
    out: List[Partition] = []

    def rec(i: int, prev: int, prefix: Tuple[int, ...]):
        if i == len(lam):
            out.append(tuple(p for p in prefix if p))
            return
        for v in (lam[i], lam[i] - 1):
            if 0 <= v <= prev:
                rec(i + 1, v, prefix + (v,))

    rec(0, lam[0] if lam else 0, ())
    # deterministic: sort by descending weight then lexicographically
    uniq = sorted(set(out), key=lambda p: (-sum(p), p))
    return tuple(uniq)

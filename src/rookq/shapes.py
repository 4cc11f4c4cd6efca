"""Partitions, compositions, skew diagrams and generalized border strips.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  Compositions are tuples of nonnegative integers and may
retain zeros: the length function ``nonzero_length`` counts nonzero entries
only, which is the convention every weight formula in this package relies on.

All enumeration orders are fixed and deterministic so that emitted tables and
golden files are stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def partitions_up_to(n: int, *, strict: bool = False) -> Tuple[Partition, ...]:
    """Partitions of every weight k <= n (k < n when strict), heaviest first."""
    top = n - 1 if strict else n
    out: List[Partition] = []
    for k in range(top, -1, -1):
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


@dataclass(frozen=True)
class SkewShape:
    """Set-theoretic difference outer/inner of two nested partitions."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        inner = tuple(self.inner) + (0,) * (len(self.outer) - len(self.inner))
        if len(inner) > len(self.outer) and any(inner[len(self.outer) :]):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")
        if any(i > o for o, i in zip(self.outer, inner)):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")
        object.__setattr__(self, "inner", inner[: len(self.outer)])

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def cells(self) -> Tuple[Tuple[int, int], ...]:
        """Cells (row, col), 0-indexed, rows top to bottom."""
        out = []
        for i, o in enumerate(self.outer):
            start = self.inner[i] if i < len(self.inner) else 0
            out.extend((i, j) for j in range(start, o))
        return tuple(out)

    def __str__(self) -> str:
        return f"{list(self.outer)}/{list(self.inner)}"


def skew(outer: Sequence[int], inner: Sequence[int] = ()) -> SkewShape:
    return SkewShape(tuple(outer), tuple(inner))


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


@dataclass(frozen=True)
class BorderStrip:
    """A connected 2x2-free component of a skew diagram, by its extent."""

    size: int
    rows: int
    cols: int


@dataclass(frozen=True)
class GbsDecomposition:
    """Decomposition of a skew shape into disjoint border strips."""

    components: Tuple[BorderStrip, ...]

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)


def gbs_decompose(s: SkewShape) -> Optional[GbsDecomposition]:
    """Connected components of the cell graph (edge adjacency), top to bottom.

    Returns None when the shape contains a 2x2 block of cells, i.e. when it
    is not a generalized border strip.  An empty shape decomposes into zero
    components.

    Row i holds the cells of columns inner_i .. outer_i - 1, and rows i and
    i+1 share the columns inner_i .. outer_{i+1} - 1.  So the shape is
    2x2-free iff inner_i >= outer_{i+1} - 1 for every i, and a component is a
    maximal run of non-empty rows linked by inner_i < outer_{i+1}.  A run
    from row a to row b spans b - a + 1 rows and the columns inner_b ..
    outer_a - 1.
    """
    outer, inner = s.outer, s.inner
    comps: List[BorderStrip] = []
    top = size = 0
    for i, (o, v) in enumerate(zip(outer, inner)):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        if v < below - 1:
            return None
        if v == o:
            top = i + 1
            continue
        size += o - v
        if v >= below:
            comps.append(BorderStrip(size=size, rows=i - top + 1, cols=outer[top] - v))
            top, size = i + 1, 0
    return GbsDecomposition(components=tuple(comps))


def gbs_weight(s: SkewShape, var: str = "t") -> LaurentPoly:
    """wt(theta; t) = (t-1)^(m-1) * prod (-1)^(r_i - 1) t^(c_i - 1).

    The empty shape has weight 1 by convention.
    """
    return _strip_weight_of(s, gbs_decompose(s), s.size, s.size, var)


def gbs_weight_k(
    s: SkewShape, k: int, var: str = "t", dec: Optional[GbsDecomposition] = None
) -> LaurentPoly:
    """The k-bounded weight wt(theta; k, t).

    Cases on the strip size |theta|: t^(k-1)*wt for an empty shape,
    (t-1)*t^(k-|theta|-1)*wt when 0 < |theta| < k, wt itself at |theta| = k,
    and 0 beyond k.  A caller that already holds ``gbs_decompose(s)`` passes
    it as ``dec`` so the shape is not decomposed again.

    Below k + 1 cells the weight is +-t^a (t-1)^b, fixed by the component
    count, the parity of the row total, the column total, the size and k.
    ``_strip_weight`` builds it by one closed form, memoised on those five
    values and the tag, so the 14 662 strips of the weight-9 table share 278
    polynomials.  ``gbs_weight`` reads the same memo at k = |theta|.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    size = s.size
    if size > k:
        return LaurentPoly.zero(var)
    return _strip_weight_of(s, gbs_decompose(s) if dec is None else dec, size, k, var)


def _strip_weight_of(
    s: SkewShape, dec: Optional[GbsDecomposition], size: int, k: int, var: str
) -> LaurentPoly:
    """wt(s; k, t) from the memo, keyed by the totals of s's decomposition."""
    if dec is None:
        raise NotGbsError(f"{s} is not a generalized border strip")
    comps = dec.components
    rows = cols = 0
    for c in comps:
        rows += c.rows - 1
        cols += c.cols - 1
    return _strip_weight(len(comps), rows % 2, cols, size, k, var)


@lru_cache(maxsize=None)
def _strip_weight(comps: int, odd: int, cols: int, size: int, k: int, var: str) -> LaurentPoly:
    """(-1)^odd * t^a * (t-1)^b, the weight wt(theta; k, t) of a strip of
    ``comps`` components with column total ``cols`` and 0 <= size <= k cells.

    At size = k it is wt(theta; t): b = comps - 1 and a = cols, or 1 for the
    empty shape.  An empty shape below k gives t^(k-1); otherwise 0 < size <
    k adds one factor (t-1) and shifts by t^(k-size-1).
    """
    if size == k:
        b, a = max(comps - 1, 0), cols
    elif size == 0:
        b, a = 0, k - 1
    else:
        b, a = comps, cols + k - size - 1
    sign = -1 if odd else 1
    # (t-1)^b = sum_j C(b, j) t^j (-1)^(b-j)
    return LaurentPoly._make(
        var, {2 * (a + j): sign * (-1) ** (b - j) * math.comb(b, j) for j in range(b + 1)}
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


def gbs_complements(lam: Partition, lo: int, hi: int) -> Tuple[Partition, ...]:
    """Partitions nu in lam with lam/nu a generalized border strip of lo..hi cells.

    The same nu, in the same order, as ``sub_partitions(lam)`` filtered by
    strip size and ``gbs_decompose``, without building the rest.  nu is built
    row by row.  lam/nu is 2x2-free iff nu_i >= lam_{i+1} - 1 for every row i
    (see ``gbs_decompose``), so nu_i goes no lower than that, nor so low that
    more than hi cells are removed; and no higher than leaves lo reachable,
    since rows i+1.. can give up at most the hook length of their first cell.
    """
    rows = len(lam)
    # the rows chosen so far: (nu, cells removed, last part)
    layer = [((), 0, lam[0] if lam else 0)]
    for i, part in enumerate(lam):
        below = lam[i + 1] if i + 1 < rows else 0
        floor = below - 1 if below else 0
        later = below + rows - 2 - i if below else 0
        grown = []
        for nu, removed, cap in layer:
            # min(cap, part, ...) without the call: this loop is hot in chi_mn
            top = removed + part + later - lo
            if top > cap:
                top = cap
            if top > part:
                top = part
            for v in range(top, floor - 1, -1):
                r = removed + part - v
                if r > hi:
                    break
                grown.append((nu + (v,) if v else nu, r, v))
        layer = grown
    return tuple(nu for nu, removed, _ in layer if removed >= lo)


def vertical_strip_complements(lam: Partition) -> Tuple[Partition, ...]:
    """All partitions nu contained in lam with lam/nu a vertical strip."""
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

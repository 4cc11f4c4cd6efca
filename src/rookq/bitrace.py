"""Bitrace (second orthogonality) of the q-rook monoid algebra.

Two independent routes are provided: the definitional character sum

    btr(mu, nu) = sum_{k=0}^{n} sum_{lambda |- k} chi^lambda_mu chi^lambda_nu

and the combinatorial formula over weighted contingency matrices with one
extra border row and column.  The weight of a border entry m is
(1 - q^{-1})^{[m>0]} q^m, and of an inner entry the bracket

    (r)_q = (q-1)(q^{2r} - 1)/(q+1),   (0)_q = 1,   (r)_q = 0 for r < 0.

A matrix weight is a product over entries, so ``btr_matrix`` never lists the
matrices.  The inner sum H(alpha, beta) over matrices with row sums alpha and
column sums beta is evaluated one row at a time, memoised on the sorted
margins still to be filled; a border row or column with l nonzero entries
summing to k contributes (1 - q^{-1})^l q^k.  ``contingency_matrices`` and
``ContingencyMatrix.weight`` keep the entry-by-entry listing as a reference.

The matrix route sums in its own ``int`` dicts, exponent -> coefficient:
the entry weights come from the terms of ``bracket``, each (1 - q^{-1})^l is
expanded by binomial coefficients, and the levels k are added into one
accumulator that becomes a ``LaurentPoly`` once, for its one exact division.
It makes no ``LaurentPoly`` product or sum, so it shares no arithmetic
kernel with ``btr_def``, which sums ``chi_mn`` values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Sequence, Tuple

from .errors import InvariantViolation, WeightMismatch
from .exact import LaurentPoly
from .shapes import (
    border_counts,
    comp_sub,
    nonzero_length,
    partitions_of,
    sort_to_partition,
    subcompositions,
)
from .symfunc import inner_product, q_mu
from . import characters

_Q = LaurentPoly.monomial("q", 1)
_ONE = LaurentPoly.one("q")
_QM1 = _Q - 1
_ONE_MINUS_QINV = _ONE - LaurentPoly.monomial("q", -1)


@lru_cache(maxsize=None)
def bracket(r: int) -> LaurentPoly:
    """(r)_q = (q-1)(q^{2r}-1)/(q+1); 1 at r=0 and 0 for negative r.

    (q^{2r}-1)/(q+1) = q^{2r-1} - q^{2r-2} + ... + q - 1, so for r > 0

        (r)_q = q^{2r} + 2 sum_{0<j<2r} (-1)^j q^j + 1,

    written down without a polynomial product.
    """
    if r < 0:
        return LaurentPoly.zero("q")
    if r == 0:
        return _ONE
    terms = {j: 2 if j % 2 == 0 else -2 for j in range(1, 2 * r)}
    terms[0] = terms[2 * r] = 1
    return LaurentPoly._make("q", terms)


def _validate_composition(c: Sequence[int]) -> Tuple[int, ...]:
    t = tuple(c)
    if any(not isinstance(x, int) or x <= 0 for x in t):
        raise ValueError(f"composition parts must be positive integers: {t}")
    return t


def _validate_pair(
    mu: Sequence[int], nu: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``mu`` and ``nu`` as compositions of one weight: ValueError for a part
    that is not a positive int, WeightMismatch for unequal weights."""
    mu, nu = _validate_composition(mu), _validate_composition(nu)
    if sum(mu) != sum(nu):
        raise WeightMismatch(f"|{list(mu)}|={sum(mu)} but |{list(nu)}|={sum(nu)}")
    return mu, nu


@dataclass(frozen=True)
class ContingencyMatrix:
    """Bordered nonnegative integer matrix for the bitrace formula.

    Shape (l(mu)+1) x (l(nu)+1) with m_11 = 0, equal first-row and
    first-column sums, and margins mu_i / nu_j on the remaining rows/columns.
    """

    mu: Tuple[int, ...]
    nu: Tuple[int, ...]
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        lm, ln = len(self.mu), len(self.nu)
        e = self.entries
        if len(e) != lm + 1 or any(len(row) != ln + 1 for row in e):
            raise ValueError("contingency matrix has wrong dimensions")
        if e[0][0] != 0:
            raise ValueError("corner entry m_11 must be 0")
        if sum(e[0]) != sum(row[0] for row in e):
            raise ValueError("first row sum must equal first column sum")
        for i in range(1, lm + 1):
            if sum(e[i]) != self.mu[i - 1]:
                raise ValueError(f"row {i} must sum to {self.mu[i - 1]}")
        for j in range(1, ln + 1):
            if sum(row[j] for row in e) != self.nu[j - 1]:
                raise ValueError(f"column {j} must sum to {self.nu[j - 1]}")

    def weight(self) -> LaurentPoly:
        """Product of entry weights: border entries give (1-q^{-1})q^m, inner (m)_q."""
        w = _ONE
        for m in self.entries[0][1:]:
            if m:
                w = w * _ONE_MINUS_QINV.times_power(m)
        for row in self.entries[1:]:
            if row[0]:
                w = w * _ONE_MINUS_QINV.times_power(row[0])
            for m in row[1:]:
                if m:
                    w = w * bracket(m)
        return w


def margin_matrices(
    row_margins: Sequence[int], col_margins: Sequence[int]
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All nonnegative integer matrices with the given exact margins."""
    row_margins = tuple(row_margins)
    col_margins = tuple(col_margins)
    if sum(row_margins) != sum(col_margins):
        return

    def rec(rows: Tuple[int, ...], cols: Tuple[int, ...]):
        if not rows:
            if all(c == 0 for c in cols):
                yield ()
            return
        for first in subcompositions(cols, rows[0]):
            rest_cols = tuple(c - x for c, x in zip(cols, first))
            for tail in rec(rows[1:], rest_cols):
                yield (first,) + tail

    yield from rec(row_margins, col_margins)


def contingency_matrices(mu: Sequence[int], nu: Sequence[int]) -> Iterator[ContingencyMatrix]:
    """Enumerate the bordered matrices of the bitrace formula.

    The shared first-row/first-column total k runs over 0..n; the first row
    is bounded columnwise by nu and the first column rowwise by mu, and the
    inner block is filled by exact-margin recursion.
    """
    mu, nu = _validate_pair(mu, nu)
    n = sum(mu)
    for k in range(n + 1):
        for first_row in subcompositions(nu, k):
            inner_cols = comp_sub(nu, first_row)
            for first_col in subcompositions(mu, k):
                inner_rows = comp_sub(mu, first_col)
                for inner in margin_matrices(inner_rows, inner_cols):
                    entries = ((0,) + first_row,) + tuple(
                        (first_col[i],) + inner[i] for i in range(len(mu))
                    )
                    yield ContingencyMatrix(mu=mu, nu=nu, entries=entries)


def _add_product(
    acc: Dict[int, int], a: Dict[int, int], b: Dict[int, int], shift: int = 0
) -> None:
    """acc += a * b * q^shift, in place, on exponent -> int coefficient dicts."""
    get = acc.get
    terms2 = b.items()
    for h1, c1 in a.items():
        h1 += shift
        for h2, c2 in terms2:
            h = h1 + h2
            acc[h] = get(h, 0) + c1 * c2


@lru_cache(maxsize=None)
def _inner_terms(alpha: Tuple[int, ...], beta: Tuple[int, ...]) -> Dict[int, int]:
    """``inner_sum``'s value as a dict of nonzero coefficients.  The dict is
    shared by every caller: never modify it."""
    if not alpha:
        return {} if beta else {0: 1}
    groups: Dict[Tuple[int, ...], Counter] = {}
    for r in subcompositions(beta, alpha[0]):
        rest = sort_to_partition(comp_sub(beta, r))
        groups.setdefault(rest, Counter())[sort_to_partition(r)] += 1
    total: Dict[int, int] = {}
    for rest, rows in groups.items():
        row_weight: Dict[int, int] = {}
        for parts, count in rows.items():
            # count * prod_j (r_j)_q; the last factor goes into row_weight
            w = {0: count}
            for m in parts[:-1]:
                nxt: Dict[int, int] = {}
                _add_product(nxt, w, bracket(m)._terms)
                w = nxt
            _add_product(row_weight, w, bracket(parts[-1])._terms)
        _add_product(total, row_weight, _inner_terms(alpha[1:], rest))
    return {h: c for h, c in total.items() if c}


def inner_sum(alpha: Tuple[int, ...], beta: Tuple[int, ...]) -> LaurentPoly:
    """H(alpha, beta): the sum over nonnegative matrices with row sums alpha
    and column sums beta of the product of entry brackets (m)_q.

    Both margins are partitions (sorted, no zeros) of the same weight; H is
    symmetric and invariant under permuting rows or columns.  The first row
    r ranges over C(beta; alpha_1), and the rows below fill sort(beta - r):

        H(alpha, beta) = sum_r prod_j (r_j)_q * H(alpha_2..., sort(beta - r)).

    Rows r with the same nonzero entries and the same remainder are counted
    once with their multiplicity before any polynomial is multiplied.  The
    recursion is memoised on plain ``int`` coefficient dicts, summed in place
    from the terms of ``bracket``; only this wrapper builds a ``LaurentPoly``.
    """
    return LaurentPoly._make("q", dict(_inner_terms(alpha, beta)))


def _border_groups(mu: Tuple[int, ...], k: int) -> Dict[Tuple[int, ...], Dict[int, int]]:
    """Border entries a in C(mu; k), grouped by the inner margin sort(mu - a):
    each group sums (1 - q^{-1})^{l(a)} over its members, expanded by binomial
    coefficients into one ``int`` dict."""
    out: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for (rest, length), count in border_counts(mu, k).items():
        acc = out.setdefault(rest, {})
        for s in range(length + 1):
            c = count * math.comb(length, s)
            acc[-s] = acc.get(-s, 0) + (-c if s % 2 else c)
    return out


def btr_matrix(mu: Sequence[int], nu: Sequence[int]) -> LaurentPoly:
    """Bitrace by the weighted contingency-matrix formula, summed row by row.

    btr(mu, nu) = (q-1)^{-(l(mu)+l(nu))} sum_k q^{2k}
        sum_{a in C(mu;k), b in C(nu;k)} (1-q^{-1})^{l(a)+l(b)}
            H(sort(mu-a), sort(nu-b)),

    where k is the shared border total and H is ``inner_sum``.  Every level
    is added, shifted by 2k, into one ``int`` dict, which becomes a
    ``LaurentPoly`` once and is divided once by (q-1)^{l(mu)+l(nu)}, itself
    expanded by binomial coefficients.  The route makes no ``LaurentPoly``
    product or sum, so it shares no kernel with ``btr_def``.
    """
    mu, nu = _validate_pair(mu, nu)
    total: Dict[int, int] = {}
    for k in range(sum(mu) + 1):
        cols = _border_groups(nu, k)
        for rest_mu, wa in _border_groups(mu, k).items():
            inner: Dict[int, int] = {}
            for rest_nu, wb in cols.items():
                _add_product(inner, wb, _inner_terms(rest_mu, rest_nu))
            _add_product(total, wa, inner, 2 * k)
    l = len(mu) + len(nu)
    qm1_power = {s: -math.comb(l, s) if (l - s) % 2 else math.comb(l, s) for s in range(l + 1)}
    return LaurentPoly._make("q", {h: c for h, c in total.items() if c}).exact_div(
        LaurentPoly._make("q", qm1_power)
    )


def btr_def(mu: Sequence[int], nu: Sequence[int]) -> LaurentPoly:
    """Bitrace by the definitional character sum.

    Compositions are admitted: character values depend only on the partition
    rearrangement of the argument.
    """
    mu_p, nu_p = map(sort_to_partition, _validate_pair(mu, nu))
    n = sum(mu_p)
    total = LaurentPoly.zero("q")
    for k in range(n + 1):
        for lam in partitions_of(k):
            total = total + characters.chi_mn(lam, mu_p) * characters.chi_mn(lam, nu_p)
    return total


def hl_inner(alpha: Sequence[int], beta: Sequence[int]) -> LaurentPoly:
    """<q_alpha(q^{-1}), q_beta(q^{-1})> computed by two routes.

    Matrix route: q^{-2|alpha|} * H(alpha, beta), the sum over matrices with
    margins (alpha, beta) of the product of entry brackets (``inner_sum``).
    Power-sum route: the t-inner product of the one-row Hall-Littlewood
    products, followed by t -> q^{-1}.  The two must agree exactly.
    """
    alpha, beta = map(sort_to_partition, _validate_pair(alpha, beta))
    w = sum(alpha)
    via_matrix = inner_sum(alpha, beta).times_power(-2 * w)
    via_pbasis = inner_product(q_mu(alpha), q_mu(beta)).substitute_inverse()
    if via_matrix != via_pbasis:
        raise InvariantViolation(
            f"contingency and power-sum routes disagree for {list(alpha)}, {list(beta)}: "
            f"{via_matrix} vs {via_pbasis}"
        )
    return via_matrix


def regular_char(mu: Sequence[int]) -> LaurentPoly:
    """Trace of the regular representation at the standard element of mu:

    q^n/(q-1)^l(mu) * sum_{i=0}^{n} sum_{tau in C(mu;i)}
        C(n,i) (1-q^{-1})^{l(mu-tau)+i} * i! / prod_j tau_j!.
    """
    mu = sort_to_partition(_validate_composition(mu))
    n = sum(mu)
    acc = LaurentPoly.zero("q")
    for i in range(n + 1):
        binom = math.comb(n, i)
        for tau in subcompositions(mu, i):
            denom = 1
            for t in tau:
                denom *= math.factorial(t)
            coeff = binom * math.factorial(i) // denom
            rest = comp_sub(mu, tau)
            acc = acc + (_ONE_MINUS_QINV ** (nonzero_length(rest) + i)).scale(coeff)
    return acc.times_power(n).exact_div(_QM1 ** len(mu))


def dim_rn(n: int) -> int:
    """dim R_n(q) = sum_{i=0}^{n} C(n,i)^2 i! (partial permutation matrices)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(math.comb(n, i) ** 2 * math.factorial(i) for i in range(n + 1))

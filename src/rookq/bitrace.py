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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, Sequence, Tuple

from .errors import InvariantViolation, WeightMismatch
from .exact import LaurentPoly
from .shapes import (
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
    """(r)_q = (q-1)(q^{2r}-1)/(q+1); 1 at r=0 and 0 for negative r."""
    if r < 0:
        return LaurentPoly.zero("q")
    if r == 0:
        return _ONE
    even = LaurentPoly.monomial("q", 2 * r) - 1
    return even.exact_div(_Q + 1) * _QM1


def _validate_composition(c: Sequence[int]) -> Tuple[int, ...]:
    t = tuple(int(x) for x in c)
    if any(x <= 0 for x in t):
        raise ValueError(f"composition parts must be positive: {t}")
    return t


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
    mu = _validate_composition(mu)
    nu = _validate_composition(nu)
    n = sum(mu)
    if sum(nu) != n:
        raise WeightMismatch(f"|mu|={n} but |nu|={sum(nu)}")
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


@lru_cache(maxsize=None)
def inner_sum(alpha: Tuple[int, ...], beta: Tuple[int, ...]) -> LaurentPoly:
    """H(alpha, beta): the sum over nonnegative matrices with row sums alpha
    and column sums beta of the product of entry brackets (m)_q.

    Both margins are partitions (sorted, no zeros) of the same weight; H is
    symmetric and invariant under permuting rows or columns.  The first row
    r ranges over C(beta; alpha_1), and the rows below fill sort(beta - r):

        H(alpha, beta) = sum_r prod_j (r_j)_q * H(alpha_2..., sort(beta - r)).

    Rows r with the same nonzero entries and the same remainder are counted
    once with their multiplicity before any polynomial is multiplied.
    """
    if not alpha:
        return _ONE if not beta else LaurentPoly.zero("q")
    groups: Dict[Tuple[int, ...], Counter] = {}
    for r in subcompositions(beta, alpha[0]):
        rest = sort_to_partition(comp_sub(beta, r))
        groups.setdefault(rest, Counter())[sort_to_partition(r)] += 1
    total = LaurentPoly.zero("q")
    for rest, rows in groups.items():
        row_weight = LaurentPoly.zero("q")
        for parts, count in rows.items():
            w = _ONE
            for m in parts:
                w = w * bracket(m)
            row_weight = row_weight + w.scale(count)
        total = total + row_weight * inner_sum(alpha[1:], rest)
    return total


def _border_groups(mu: Tuple[int, ...], k: int) -> Dict[Tuple[int, ...], LaurentPoly]:
    """Border entries a in C(mu; k), grouped by the inner margin sort(mu - a):
    each group sums (1 - q^{-1})^{l(a)} over its members."""
    counts: Counter = Counter()
    for a in subcompositions(mu, k):
        counts[sort_to_partition(comp_sub(mu, a)), nonzero_length(a)] += 1
    out: Dict[Tuple[int, ...], LaurentPoly] = {}
    for (rest, length), count in counts.items():
        term = (_ONE_MINUS_QINV**length).scale(count)
        out[rest] = out[rest] + term if rest in out else term
    return out


def btr_matrix(mu: Sequence[int], nu: Sequence[int]) -> LaurentPoly:
    """Bitrace by the weighted contingency-matrix formula, summed row by row.

    btr(mu, nu) = (q-1)^{-(l(mu)+l(nu))} sum_k q^{2k}
        sum_{a in C(mu;k), b in C(nu;k)} (1-q^{-1})^{l(a)+l(b)}
            H(sort(mu-a), sort(nu-b)),

    where k is the shared border total and H is ``inner_sum``.
    """
    mu = _validate_composition(mu)
    nu = _validate_composition(nu)
    n = sum(mu)
    if sum(nu) != n:
        raise WeightMismatch(f"|mu|={n} but |nu|={sum(nu)}")
    total = LaurentPoly.zero("q")
    for k in range(n + 1):
        cols = _border_groups(nu, k)
        level = LaurentPoly.zero("q")
        for rest_mu, wa in _border_groups(mu, k).items():
            inner = LaurentPoly.zero("q")
            for rest_nu, wb in cols.items():
                inner = inner + wb * inner_sum(rest_mu, rest_nu)
            level = level + wa * inner
        total = total + level.times_power(2 * k)
    return total.exact_div(_QM1 ** (len(mu) + len(nu)))


def btr_def(mu: Sequence[int], nu: Sequence[int]) -> LaurentPoly:
    """Bitrace by the definitional character sum.

    Compositions are admitted: character values depend only on the partition
    rearrangement of the argument.
    """
    mu_p = sort_to_partition(_validate_composition(mu) if mu else ())
    nu_p = sort_to_partition(_validate_composition(nu) if nu else ())
    n = sum(mu_p)
    if sum(nu_p) != n:
        raise WeightMismatch(f"|mu|={n} but |nu|={sum(nu_p)}")
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
    alpha = sort_to_partition(alpha)
    beta = sort_to_partition(beta)
    w = sum(alpha)
    if sum(beta) != w:
        raise WeightMismatch(f"|alpha|={w} but |beta|={sum(beta)}")
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
    mu = sort_to_partition(_validate_composition(mu) if mu else ())
    n = sum(mu)
    acc = LaurentPoly.zero("q")
    for i in range(n + 1):
        binom = math.comb(n, i)
        for tau in subcompositions(mu, i):
            denom = 1
            for t in tau:
                denom *= math.factorial(t)
            coeff = Fraction(binom * math.factorial(i), denom)
            rest = comp_sub(mu, tau)
            acc = acc + (_ONE_MINUS_QINV ** (nonzero_length(rest) + i)).scale(coeff)
    return acc.times_power(n).exact_div(_QM1 ** len(mu))


def dim_rn(n: int) -> int:
    """dim R_n(q) = sum_{i=0}^{n} C(n,i)^2 i! (partial permutation matrices)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(math.comb(n, i) ** 2 * math.factorial(i) for i in range(n + 1))

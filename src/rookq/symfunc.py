"""Symmetric functions in the power-sum basis over Q[t].

A ``PExpansion`` is a finite linear combination of power sums p_rho with
coefficients that are polynomials in t.  Inhomogeneous elements are allowed:
the modified one-row Hall-Littlewood functions q-hat mix weights because
p-hat_n = 1 + p_n.

The classical symmetric-group characters live here too (Murnaghan-Nakayama
recursion with memoization); they back the Schur expansion

    s_lambda = sum_rho chi^lambda_rho / z_rho * p_rho

which in turn backs the inner-product oracle for the deformed characters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Union

from .errors import InvariantViolation, WeightMismatch
from .exact import LaurentPoly
from .shapes import (
    Partition,
    border_counts,
    multiplicities,
    partitions_of,
    z_lambda,
)
# unused here, but perfbench/tests/test_tracer.py checks that this name is bound
from .shapes import gbs_decompose  # noqa: F401

Coeff = Union[int, Fraction, LaurentPoly]


def _as_tcoeff(c: Coeff) -> LaurentPoly:
    if isinstance(c, LaurentPoly):
        if c.var != "t" and not c._is_const():
            raise ValueError(f"p-basis coefficients live in Q[t], got variable {c.var!r}")
        if c.var != "t":
            return LaurentPoly("t", c._terms)
        return c
    return LaurentPoly.const(c, "t")


class PExpansion:
    """Symmetric function written in the power-sum basis."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Partition, Coeff] | None = None):
        out: Dict[Partition, LaurentPoly] = {}
        if terms:
            for rho, c in terms.items():
                c = _as_tcoeff(c)
                if not c.is_zero:
                    out[tuple(rho)] = c
        self._terms = out

    @classmethod
    def zero(cls) -> "PExpansion":
        return cls()

    @classmethod
    def one(cls) -> "PExpansion":
        return cls({(): 1})

    @classmethod
    def p(cls, rho: Iterable[int]) -> "PExpansion":
        """The power sum p_rho."""
        return cls({tuple(rho): 1})

    def terms(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "PExpansion") -> "PExpansion":
        out = dict(self._terms)
        for rho, c in other._terms.items():
            cur = out.get(rho)
            out[rho] = c if cur is None else cur + c
        return PExpansion(out)

    def scale(self, c: Coeff) -> "PExpansion":
        c = _as_tcoeff(c)
        return PExpansion({rho: cc * c for rho, cc in self._terms.items()})

    def __mul__(self, other: "PExpansion") -> "PExpansion":
        """Bilinear product; p_lambda * p_mu = p_{sort(lambda + mu)}."""
        out: Dict[Partition, LaurentPoly] = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in other._terms.items():
                key = tuple(sorted(r1 + r2, reverse=True))
                c = c1 * c2
                cur = out.get(key)
                out[key] = c if cur is None else cur + c
        return PExpansion(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PExpansion):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted((r, p) for r, p in self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda r: (sum(r), r))
        return " + ".join(
            f"({self._terms[k]})*p{list(k)}" if k else f"({self._terms[k]})"
            for k in keys
        )

    __repr__ = __str__


def inner_product(f: PExpansion, g: PExpansion) -> LaurentPoly:
    """<p_lambda, p_mu> = delta_{lambda,mu} z_lambda, extended bilinearly."""
    total = LaurentPoly.zero("t")
    small, large = (f, g) if len(f._terms) <= len(g._terms) else (g, f)
    for rho, c1 in small._terms.items():
        c2 = large._terms.get(rho)
        if c2 is not None:
            total = total + c1 * c2 * z_lambda(rho)
    return total


def adjoint_apply(g: PExpansion, f: PExpansion) -> PExpansion:
    """Apply the adjoint of multiplication by g.

    Each p_n in g acts as the derivation n * d/dp_n, so
    <g * u, v> = <u, adjoint_apply(g, v)>.
    """
    out: Dict[Partition, LaurentPoly] = {}
    for rho, cg in g._terms.items():
        mult_rho = multiplicities(rho)
        for sigma, cf in f._terms.items():
            mult_sigma = multiplicities(sigma)
            factor = 1
            for v, k in mult_rho.items():
                m = mult_sigma.get(v, 0)
                if m < k:
                    factor = 0
                    break
                for j in range(k):
                    factor *= (m - j) * v
            if not factor:
                continue
            new_mult = dict(mult_sigma)
            for v, k in mult_rho.items():
                new_mult[v] -= k
            key = tuple(
                sorted((v for v, m in new_mult.items() for _ in range(m)), reverse=True)
            )
            c = cg * cf * factor
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
    return PExpansion(out)


@lru_cache(maxsize=None)
def hn_expansion(n: int) -> PExpansion:
    """Complete homogeneous h_n = sum_{lambda |- n} p_lambda / z_lambda."""
    if n < 0:
        return PExpansion.zero()
    return PExpansion({lam: Fraction(1, z_lambda(lam)) for lam in partitions_of(n)})


@lru_cache(maxsize=None)
def qn_expansion(n: int) -> PExpansion:
    """One-row Hall-Littlewood q_n(t) = sum_{lambda |- n} p_lambda / z_lambda(t).

    The coefficient of p_lambda is prod_i (1 - t^{lambda_i}) / z_lambda, an
    ordinary polynomial in t.
    """
    terms: Dict[Partition, LaurentPoly] = {}
    for lam in partitions_of(n):
        c = LaurentPoly.one("t")
        for part in lam:
            c = c * (1 - LaurentPoly.monomial("t", part))
        c = c.scale(Fraction(1, z_lambda(lam)))
        if not c.is_ordinary():
            raise InvariantViolation(f"q_n(t) coefficients must be polynomials in t, got {c}")
        terms[lam] = c
    return PExpansion(terms)


@lru_cache(maxsize=None)
def qhat_expansion(n: int) -> PExpansion:
    """Modified one-row function built from p-hat_m = 1 + p_m.

    q-hat_n(t) = sum_{lambda |- n} (1 / z_lambda(t)) prod_i (1 + p_{lambda_i}),
    expanded multilinearly into the plain p-basis; the coefficients
    1 / z_lambda(t) are those of ``qn_expansion(n)``.
    """
    total = PExpansion.zero()
    for lam, c in qn_expansion(n).terms():
        phat = PExpansion.one()
        for part in lam:
            phat = phat * PExpansion({(): 1, (part,): 1})
        total = total + phat.scale(c)
    return total


@lru_cache(maxsize=None)
def qhat_mu(mu: Partition) -> PExpansion:
    """Product q-hat_mu = q-hat_{mu_1} q-hat_{mu_2} ..."""
    out = PExpansion.one()
    for part in mu:
        out = out * qhat_expansion(part)
    return out


@lru_cache(maxsize=None)
def q_mu(mu: Partition) -> PExpansion:
    """Product q_mu(t) = q_{mu_1}(t) q_{mu_2}(t) ..."""
    out = PExpansion.one()
    for part in mu:
        out = out * qn_expansion(part)
    return out


@lru_cache(maxsize=None)
def _classical_rec(lam: Partition, rho: Partition) -> int:
    if not rho:
        return 1 if not lam else 0
    if sum(lam) > sum(rho):
        return 0
    k, rest = rho[0], rho[1:]
    # the "remove nothing" branch dies on weight grounds when |lam| = |rho|
    total = _classical_rec(lam, rest)
    # a rim hook of k cells moves one beta-number b = lam_i + l(lam) - i to a
    # free b - k; its height is the number of beta-numbers the move passes
    top = len(lam) - 1
    beads = [part + top - i for i, part in enumerate(lam)]
    for b in beads:
        if b >= k and b - k not in beads:
            moved = sorted((b - k if c == b else c for c in beads), reverse=True)
            nu = tuple(p for p in (c - top + i for i, c in enumerate(moved)) if p)
            total += (-1) ** sum(b - k < c < b for c in beads) * _classical_rec(nu, rest)
    return total


def classical_char(lam: Partition, rho: Partition) -> int:
    """Classical character value by rim-hook recursion on beta-numbers.

    For |lam| = |rho| this is the symmetric group character chi^lambda_rho
    (Murnaghan-Nakayama).  For |lam| < |rho| it is the q -> 1 limit of the
    deformed character: the same recursion gains a skip branch of coefficient
    one, because only empty strips and single border strips of full size
    survive the specialization of the strip weights.
    """
    lam, rho = tuple(lam), tuple(rho)
    if sum(lam) > sum(rho):
        raise WeightMismatch(f"|{list(lam)}| exceeds |{list(rho)}|")
    return _classical_rec(lam, rho)


@lru_cache(maxsize=None)
def schur_in_p(lam: Partition) -> PExpansion:
    """s_lambda = sum_{rho |- |lambda|} (chi^lambda_rho / z_rho) p_rho."""
    n = sum(lam)
    terms: Dict[Partition, Fraction] = {}
    for rho in partitions_of(n):
        chi = classical_char(lam, rho)
        if chi:
            terms[rho] = Fraction(chi, z_lambda(rho))
    return PExpansion(terms)


def qhat_lemma_rhs(lam: Partition) -> PExpansion:
    """sum over compositions tau contained in lam of (1-t)^{l(tau)} q_{lam-tau}(t)."""
    one_minus_t = 1 - LaurentPoly.monomial("t", 1)
    total = PExpansion.zero()
    for k in range(sum(lam) + 1):
        for (rest, length), count in border_counts(tuple(lam), k).items():
            total = total + q_mu(rest).scale(one_minus_t**length * count)
    return total


def h_adjoint_combinatorial(k: int, mu: Partition) -> PExpansion:
    """The combinatorial route for h*_k applied to q-hat_mu:

    sum over tau in C(mu; k) of (1-t)^{l(tau)} q-hat_{mu - tau}.
    """
    one_minus_t = 1 - LaurentPoly.monomial("t", 1)
    total = PExpansion.zero()
    for (rest, length), count in border_counts(tuple(mu), k).items():
        total = total + qhat_mu(rest).scale(one_minus_t**length * count)
    return total

"""Symmetric functions in the power-sum basis, with coefficients in Q[t].

A ``PExpansion`` is a finite linear combination of power sums p_rho with
coefficients in Q[t].  It is built and read back as integer t-polynomial
numerators over one positive ``int`` denominator ``den``, in lowest terms,
and stores each numerator as a plain ``{exponent: int}`` dict: the 1/z_rho
of the power-sum basis go into that denominator, and h_n, q_n, q-hat_n and
s_lambda are built as integer numerators over n!, so no rational number is
ever formed or accepted.  Products, sums and ``combination`` (sum c_i f_i)
add int products straight into one dict per rho and reduce by the gcd once
per result.  ``inner_product`` and ``schur_pairing`` divide their integer
sums by the denominators once, and raise ``NonExactDivision`` when the value
is not in Z[t].  Inhomogeneous
elements are allowed: the modified one-row Hall-Littlewood functions q-hat mix
weights because p-hat_n = 1 + p_n.

The classical symmetric-group characters live here too (Murnaghan-Nakayama
recursion with memoization); they give the Schur expansion

    s_lambda = sum_rho chi^lambda_rho / z_rho * p_rho,

and ``schur_pairing`` pairs them directly with an expansion: since
<p_rho, p_rho> = z_rho, the z_rho cancels and
<f, s_lambda> = sum_rho [p_rho]f * chi^lambda_rho, summed over the integer
numerators of f and divided by its denominator once.  ``characters.chi_oracle``
takes it on ``qhat_mu(mu)``, the same memoised product the checks vouch for.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .errors import InvariantViolation, NonExactDivision, WeightMismatch
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

Coeff = Union[int, LaurentPoly]
Numerator = Dict[int, int]  # exponent of t -> nonzero int


def _numerator(c: Coeff) -> Numerator:
    """c's terms, shared, never written: an ``int``, a t-polynomial, or a
    constant of either tag; ``LaurentPoly`` refuses any other number with
    TypeError."""
    if not isinstance(c, LaurentPoly):
        c = LaurentPoly.const(c, "t")
    elif c.var != "t" and not c._is_const():
        raise ValueError(f"p-basis coefficients live in Q[t], got variable {c.var!r}")
    return c._terms


def _add_product(acc: Numerator, a: Numerator, b: Numerator, k: int = 1) -> None:
    """acc += k * a * b, in place."""
    get = acc.get
    b_items = b.items()
    for h1, c1 in a.items():
        c1 *= k
        for h2, c2 in b_items:
            h = h1 + h2
            acc[h] = get(h, 0) + c1 * c2


def _divided(num: Numerator, den: int) -> LaurentPoly:
    """The t-polynomial num / den, which must have integer coefficients."""
    num = {h: c for h, c in num.items() if c}
    if any(c % den for c in num.values()):
        raise NonExactDivision(f"({LaurentPoly._make('t', num)})/{den} is not in Z[t]")
    return LaurentPoly._make("t", {h: c // den for h, c in num.items()})


def _reduced(terms: Dict[Partition, Numerator], den: int) -> "PExpansion":
    """The expansion sum_rho terms[rho] / den, zeros dropped, in lowest terms.
    The dicts of ``terms`` are read, not kept."""
    out: Dict[Partition, Numerator] = {}
    g = den
    for rho, c in terms.items():
        c = {h: v for h, v in c.items() if v}
        if c:
            out[rho] = c
            if g != 1:
                g = math.gcd(g, *c.values())
    if g != 1:
        out = {rho: {h: v // g for h, v in c.items()} for rho, c in out.items()}
    f = object.__new__(PExpansion)
    f._terms = out
    f.den = den // g
    return f


class PExpansion:
    """Symmetric function written in the power-sum basis.

    The coefficient of p_rho is ``_terms[rho] / den``: every ``_terms`` value
    is a private ``{exponent of t: int}`` dict of nonzero integers, ``den`` is
    a positive ``int``, and the pair is in lowest terms (zero is ``{}`` over
    1), so equal expansions have equal fields.  Arithmetic adds products of
    those ints straight into one accumulator dict per rho and reduces once.
    The constructor takes numerators (``int`` or t-polynomials) over a
    positive ``int`` ``den`` and reduces them; ``terms()`` gives them back as
    t-polynomials, so ``PExpansion(dict(f.terms()), f.den) == f``; ``scale``
    takes one such numerator.
    """

    __slots__ = ("_terms", "den")

    def __new__(cls, terms: Mapping[Partition, Coeff] | None = None, den: int = 1) -> "PExpansion":
        if not isinstance(den, int) or den < 1:
            raise ValueError(f"den must be a positive int, got {den!r}")
        return _reduced({tuple(rho): _numerator(c) for rho, c in (terms or {}).items()}, den)

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

    def terms(self) -> List[Tuple[Partition, LaurentPoly]]:
        """The (rho, integer t-polynomial numerator) pairs; each coefficient is
        numerator / ``den``."""
        return [(rho, LaurentPoly._make("t", c)) for rho, c in self._terms.items()]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "PExpansion") -> "PExpansion":
        return combination(((1, self), (1, other)))

    def scale(self, c: Coeff) -> "PExpansion":
        return combination(((c, self),))

    def __mul__(self, other: "PExpansion") -> "PExpansion":
        """Bilinear product; p_lambda * p_mu = p_{sort(lambda + mu)}."""
        out: Dict[Partition, Numerator] = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in other._terms.items():
                key = tuple(sorted(r1 + r2, reverse=True))
                _add_product(out.setdefault(key, {}), c1, c2)
        return _reduced(out, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PExpansion):
            return NotImplemented
        return self.den == other.den and self._terms == other._terms

    def __hash__(self):
        items = sorted((rho, tuple(sorted(c.items()))) for rho, c in self._terms.items())
        return hash((self.den, tuple(items)))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        over = f"/{self.den}" if self.den != 1 else ""
        return " + ".join(
            f"({c}){over}*p{list(k)}" if k else f"({c}){over}"
            for k, c in sorted(self.terms(), key=lambda kc: (sum(kc[0]), kc[0]))
        )

    __repr__ = __str__


def combination(pairs: Iterable[Tuple[Coeff, PExpansion]]) -> PExpansion:
    """sum_i c_i * f_i over (c_i, f_i) pairs, c_i an ``int`` or t-polynomial.

    Every term is added over the lcm of the denominators into one dict per
    rho, and the sum is reduced once, at the end; the empty sum is zero.
    """
    pairs = [(_numerator(c), f) for c, f in pairs]
    den = math.lcm(*(f.den for _, f in pairs))
    out: Dict[Partition, Numerator] = {}
    for c, f in pairs:
        k = den // f.den
        for rho, cf in f._terms.items():
            _add_product(out.setdefault(rho, {}), c, cf, k)
    return _reduced(out, den)


def inner_product(f: PExpansion, g: PExpansion) -> LaurentPoly:
    """<p_lambda, p_mu> = delta_{lambda,mu} z_lambda, extended bilinearly.

    The integer sum is divided by the two denominators once, at the end;
    NonExactDivision when the value is not in Z[t].
    """
    total: Numerator = {}
    small, large = (f, g) if len(f._terms) <= len(g._terms) else (g, f)
    for rho, c1 in small._terms.items():
        c2 = large._terms.get(rho)
        if c2 is not None:
            _add_product(total, c1, c2, z_lambda(rho))
    return _divided(total, f.den * g.den)


def schur_pairing(f: PExpansion, lam: Partition) -> LaurentPoly:
    """<f, s_lambda> = sum_{rho |- |lambda|} [p_rho]f * chi^lambda_rho.

    The integer numerators of f times ``classical_char`` are summed and
    divided by the denominator of f once, at the end, which raises
    NonExactDivision when the value is not in Z[t]; rho whose coefficient is
    zero are skipped before their character is looked up.
    """
    total: Numerator = {}
    for rho in partitions_of(sum(lam)):
        c = f._terms.get(rho)
        chi = classical_char(lam, rho) if c is not None else 0
        if chi:
            for h, v in c.items():
                total[h] = total.get(h, 0) + v * chi
    return _divided(total, f.den)


def adjoint_apply(g: PExpansion, f: PExpansion) -> PExpansion:
    """Apply the adjoint of multiplication by g.

    Each p_n in g acts as the derivation n * d/dp_n, so
    <g * u, v> = <u, adjoint_apply(g, v)>.
    """
    out: Dict[Partition, Numerator] = {}
    f_terms = [(multiplicities(sigma), cf) for sigma, cf in f._terms.items()]
    for rho, cg in g._terms.items():
        mult_rho = multiplicities(rho)
        for mult_sigma, cf in f_terms:
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
            _add_product(out.setdefault(key, {}), cg, cf, factor)
    return _reduced(out, g.den * f.den)


@lru_cache(maxsize=None)
def hn_expansion(n: int) -> PExpansion:
    """Complete homogeneous h_n = sum_{lambda |- n} p_lambda / z_lambda, built
    as the class sizes n!/z_lambda over n!."""
    if n < 0:
        return PExpansion.zero()
    size = math.factorial(n)
    return PExpansion({lam: size // z_lambda(lam) for lam in partitions_of(n)}, size)


@lru_cache(maxsize=None)
def qn_expansion(n: int) -> PExpansion:
    """One-row Hall-Littlewood q_n(t) = sum_{lambda |- n} p_lambda / z_lambda(t).

    The coefficient of p_lambda is prod_i (1 - t^{lambda_i}) / z_lambda, an
    ordinary polynomial in t, built as n!/z_lambda times the product over n!.
    """
    size = math.factorial(n)
    terms: Dict[Partition, Numerator] = {}
    for lam in partitions_of(n):
        c = LaurentPoly.const(size // z_lambda(lam), "t")
        for part in lam:
            c = c * (1 - LaurentPoly.monomial("t", part))
        if not c.is_ordinary():
            raise InvariantViolation(f"q_n(t) coefficients must be polynomials in t, got {c}/{size}")
        terms[lam] = c._terms
    return _reduced(terms, size)


@lru_cache(maxsize=None)
def qhat_expansion(n: int) -> PExpansion:
    """Modified one-row function built from p-hat_m = 1 + p_m.

    q-hat_n(t) = sum_{lambda |- n} (1 / z_lambda(t)) prod_i (1 + p_{lambda_i}),
    expanded multilinearly into the plain p-basis; the coefficients
    1 / z_lambda(t) are those of ``qn_expansion(n)``, summed here over their
    common denominator.
    """
    qn = qn_expansion(n)
    pairs = []
    for lam, c in qn.terms():
        phat = PExpansion.one()
        for part in lam:
            phat = phat * PExpansion({(): 1, (part,): 1})
        pairs.append((c, phat))
    total = combination(pairs)
    return _reduced(total._terms, total.den * qn.den)


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
    size = math.factorial(n)
    return PExpansion(
        {rho: classical_char(lam, rho) * size // z_lambda(rho) for rho in partitions_of(n)}, size
    )


def qhat_lemma_rhs(lam: Partition) -> PExpansion:
    """sum over compositions tau contained in lam of (1-t)^{l(tau)} q_{lam-tau}(t)."""
    one_minus_t = 1 - LaurentPoly.monomial("t", 1)
    return combination(
        (one_minus_t**length * count, q_mu(rest))
        for k in range(sum(lam) + 1)
        for (rest, length), count in border_counts(tuple(lam), k).items()
    )


def h_adjoint_combinatorial(k: int, mu: Partition) -> PExpansion:
    """The combinatorial route for h*_k applied to q-hat_mu:

    sum over tau in C(mu; k) of (1-t)^{l(tau)} q-hat_{mu - tau}.
    """
    one_minus_t = 1 - LaurentPoly.monomial("t", 1)
    return combination(
        (one_minus_t**length * count, qhat_mu(rest))
        for (rest, length), count in border_counts(tuple(mu), k).items()
    )

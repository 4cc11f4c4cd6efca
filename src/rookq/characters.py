"""Irreducible characters chi^lambda_mu(q) of the q-rook monoid algebra.

Five algorithms compute the same values:

* ``chi_oracle``     -- pairing of q-hat_mu(t)'s integer numerators with the
                        classical characters chi^lambda_rho, one exact
                        division by its denominator, then the Frobenius
                        conversion chi = q^|mu| / (q-1)^l(mu) * X(q^{-1});
* ``chi_iterative``  -- recursion that shortens the upper partition lambda by
                        peeling its first row (vertical-strip complements);
* ``chi_mn``         -- Murnaghan-Nakayama recursion that shortens the lower
                        partition mu by weighted border strips, at q = 2^k;
* ``chi_hook`` / ``chi_two_row`` -- compact closed forms through the a/b
                        polynomial families attached to mu;
* ``seminormal.trace_standard_element`` -- exact trace of the standard
                        element T_mu on Halverson's seminormal module of
                        shape lambda, by explicit generator matrices.

``_ROUTES`` maps each name in ``METHODS`` to its route, and ``auto`` to mn's,
the fastest.  A request or a table looks its routes up once, when it
resolves its methods, so a route rebound after import is the one that runs.
``applicable(lam, mu)`` names the methods that cover a cell.

Every algorithm must return an ordinary polynomial in q with integer
coefficients; all internal divisions are exact and checked.  Called
directly, a route refuses malformed input as ``compute_chi`` does.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Callable, Dict, Sequence, Tuple

from .errors import (
    InvariantViolation,
    MethodMismatch,
    NonExactDivision,
    VariantMismatch,
)
from . import seminormal
from .exact import LaurentPoly, balanced_digits
from .shapes import (
    Partition,
    _checked,
    border_counts,
    gbs_weighted,
    nonzero_length,
    partitions_of,
    vertical_strip_complements,
)
# unused here, but perfbench/tests/test_tracer.py checks that this name is bound
from .shapes import gbs_decompose  # noqa: F401
from .symfunc import qhat_mu, schur_pairing

_Q = LaurentPoly.monomial("q", 1)
_ONE = LaurentPoly.one("q")
_QM1 = _Q - 1
_ONE_MINUS_QINV = _ONE - LaurentPoly.monomial("q", -1)

METHODS = ("oracle", "iterative", "mn", "hook", "two_row", "seminormal")
ORDERS = ("paper", "revlex")


def frobenius_chi(x_t: LaurentPoly, mu: Partition) -> LaurentPoly:
    """chi(q) = q^|mu| / (q-1)^l(mu) * X(q^{-1}), by ``div_qm1``."""
    xq = x_t.substitute_inverse()
    return xq.times_power(sum(mu)).div_qm1(len(mu))


@lru_cache(maxsize=None)
def chi_oracle(lam: Partition, mu: Partition) -> LaurentPoly:
    """X^lambda_mu(t) = <q-hat_mu(t), s_lambda> converted to chi(q).

    s_lambda = sum_rho chi^lambda_rho p_rho / z_rho and <p_rho, p_rho> = z_rho,
    so the pairing is sum_{rho |- |lambda|} [p_rho]q-hat_mu * chi^lambda_rho
    (Macdonald I.7).  ``symfunc.schur_pairing`` sums it over the integer
    numerators of the memoised ``qhat_mu(mu)`` and divides by its denominator
    once; a quotient outside Z[t] raises InvariantViolation.  ``lam`` and ``mu``
    are tuples, which the memo hashes; ``compute_chi`` takes any sequence.
    """
    _checked(lam, mu)
    try:
        x = schur_pairing(qhat_mu(mu), lam)
    except NonExactDivision as e:
        raise InvariantViolation(f"X^{list(lam)}_{list(mu)} = {e}") from None
    return frobenius_chi(x, mu)


def chi_empty(mu: Sequence[int]) -> LaurentPoly:
    """chi^{empty}_mu = q^{|mu| - l(mu)} (equal to 1 only when mu = (1^n))."""
    _checked((), mu)
    return LaurentPoly.monomial("q", sum(mu) - nonzero_length(mu))


@lru_cache(maxsize=None)
def chi_iterative(lam: Partition, mu: Partition) -> LaurentPoly:
    """Row-peeling recursion.

    chi^lambda_mu = sum over nu contained in lambda^[1] with lambda^[1]/nu a
    vertical strip, and tau in C(mu; |lambda|-|nu|), of

        (-1)^(|lambda|-|nu|-lambda_1) * q^(|lambda|-|nu|-l(tau))
          / (q-1)^(l(mu)-l(tau)-l(mu-tau)) * chi^nu_{sort(mu-tau)}.

    A summand depends on tau only through its class in ``border_counts``,
    so each class is summed once, times its count.  Its coefficients, shifted
    by k - l(tau) and times sign * count, are added into one ``int`` dict per
    (q-1) exponent e, and the dicts' polynomials are summed times (q-1)^(-e)
    by Horner's rule: every part of mu is in tau or in mu-tau, so
    l(tau) + l(mu-tau) >= l(mu) and e is never positive.  Partitions are
    tuples, as for ``chi_oracle``.
    """
    _checked(lam, mu)
    if not lam:
        return chi_empty(mu)
    m = sum(lam)
    head = lam[0]
    lmu = len(mu)
    by_exponent: Dict[int, Dict[int, int]] = {}
    for nu in vertical_strip_complements(lam[1:]):
        k = m - sum(nu)
        sign = -1 if (k - head) % 2 else 1
        for (rho, lt), count in border_counts(mu, k).items():
            acc = by_exponent.setdefault(lmu - lt - len(rho), {})
            get = acc.get
            shift = k - lt
            c = sign * count
            for h, cc in chi_iterative(nu, rho)._terms.items():
                h += shift
                acc[h] = get(h, 0) + c * cc
    total = LaurentPoly.zero("q")
    for e in range(min(by_exponent, default=0), 1):
        acc = by_exponent.get(e, {})
        total = total * _QM1 + LaurentPoly._make("q", {h: c for h, c in acc.items() if c})
    return total


# chi_mn first evaluates at q = 2^32; no cell to weight 16 needs more
_START_BITS = 32


@lru_cache(maxsize=None)
def chi_mn(lam: Partition, mu: Partition) -> LaurentPoly:
    """Murnaghan-Nakayama recursion on the lower partition.

    chi^lambda_mu = sum over nu with lambda/nu a generalized border strip of
    size at most mu_1 and |nu| <= |mu^[1]| of
    wt(lambda/nu; mu_1, q) * chi^nu_{mu^[1]}.

    It runs on plain ints at q = 2^k by Kronecker substitution (``_mn_sum``),
    with an l1 bound B of chi beside the value; if 2B >= 2^k it recomputes
    once with 2^k > 2B, so chi is the value's balanced base-2^k digits.
    """
    _checked(lam, mu)
    k = _START_BITS
    value, bound = _mn_sum(lam, mu, k)
    if 2 * bound >= 1 << k:
        k = (2 * bound).bit_length()
        value, bound = _mn_sum(lam, mu, k)
    return balanced_digits(value, k)


def _mn_sum(lam: Partition, mu: Partition, k: int) -> Tuple[int, int]:
    """(chi^lambda_mu at q = 2^k, a bound on its l1 norm), summed over the
    strips of ``gbs_weighted`` with l1(w * chi) <= l1(w) * l1(chi).  The
    children come from the memo ``_mn_at``; the cell itself is not kept."""
    if not mu:
        return 1, 1  # lam is empty too, since |lam| <= |mu|
    rest = mu[1:]
    value = bound = 0
    for nu, weight, norm in gbs_weighted(lam, sum(lam) - sum(rest), mu[0], k):
        v, b = _mn_at(nu, rest, k)
        value += weight * v
        bound += norm * b
    return value, bound


# keyed by k too, so a recomputation at more bits needs no clearing
_mn_at = lru_cache(maxsize=None)(_mn_sum)


# ----------------------------------------------------------------------
# the a/b polynomial families attached to mu
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _ab_tables(mu: Partition) -> Tuple[dict, dict]:
    """All a_{ij}(mu; q) and b_{ij}(mu; q) at once.

    Coefficient extraction from the per-part generating factors

        sum_{tau_i, theta_i} (1-q^{-1})^{[tau_i>0] + [theta_i>0]}
            * w^{[tau_i+theta_i < mu_i]} v^{tau_i} u^{theta_i}

    with w = (1-q) for the a family and (1-q^{-1}) for the b family.  Each
    family's factors are convolved on plain ``int`` coefficients, one dict
    of q-exponents per (i, j), and each becomes one polynomial at the end.
    """
    mu = _checked((), mu)[1]
    tables = []
    for w in (_ONE - _Q, _ONE_MINUS_QINV):
        # weights[border][full]: (1-q^{-1})^border, times w unless tau_i + theta_i = mu_i
        weights = [
            [tuple((_ONE_MINUS_QINV**border * t)._terms.items()) for t in (w, _ONE)]
            for border in range(3)
        ]
        acc: Dict[Tuple[int, int], Dict[int, int]] = {(0, 0): {0: 1}}
        for part in mu:
            factor = [
                (ti, th, weights[(ti > 0) + (th > 0)][ti + th == part])
                for ti in range(part + 1)
                for th in range(part + 1 - ti)
            ]
            out: Dict[Tuple[int, int], Dict[int, int]] = {}
            for (i, j), poly in acc.items():
                for ti, th, terms in factor:
                    dest = out.setdefault((i + ti, j + th), {})
                    get = dest.get
                    for h1, c1 in poly.items():
                        for h2, c2 in terms:
                            h = h1 + h2
                            dest[h] = get(h, 0) + c1 * c2
            acc = out
        table = {}
        for ij, poly in acc.items():
            terms = {h: c for h, c in poly.items() if c}
            if terms:
                table[ij] = LaurentPoly._make("q", terms)
        tables.append(table)
    return tables[0], tables[1]


def a_poly(mu: Partition, i: int, j: int) -> LaurentPoly:
    """a_{ij}(mu; q); zero outside 0 <= i, j with i + j <= |mu|."""
    return _ab_tables(tuple(mu))[0].get((i, j), LaurentPoly.zero("q"))


def b_poly(mu: Partition, i: int, j: int) -> LaurentPoly:
    """b_{ij}(mu; q); zero outside 0 <= i, j with i + j <= |mu|."""
    return _ab_tables(tuple(mu))[1].get((i, j), LaurentPoly.zero("q"))


def _ab_direct(mu: Partition, i: int, j: int, b_family: bool) -> LaurentPoly:
    """Double sum over the classes of tau in C(mu;i) and theta in C(mu-tau;j).

    A pair with B = l(tau) + l(theta) and R = l(mu-tau-theta) adds
    (1-q^{-1})^B (1-q)^R = (-q)^R (1-q^{-1})^(B+R) to a_{ij} and
    (1-q^{-1})^(B+R) to b_{ij}.  So the pairs are counted by the power B + R
    and the shift (R for a, 0 for b), and each count's one power is expanded
    by binomial coefficients, shifted and signed by (-1)^shift, straight into
    one ``int`` dict.
    """
    mu = _checked((), mu)[1]
    if i < 0 or j < 0 or i + j > sum(mu):
        return LaurentPoly.zero("q")
    counts: Counter = Counter()
    for (rem, lt), n_tau in border_counts(mu, i).items():
        for (rest, lth), n_theta in border_counts(rem, j).items():
            r = len(rest)
            counts[lt + lth + r, 0 if b_family else r] += n_tau * n_theta
    out: Dict[int, int] = {}
    get = out.get
    for (power, shift), count in counts.items():
        for s in range(power + 1):
            c = count * math.comb(power, s)
            out[shift - s] = get(shift - s, 0) + (-c if (shift + s) % 2 else c)
    return LaurentPoly._make("q", {h: c for h, c in out.items() if c})


def a_poly_direct(mu: Partition, i: int, j: int) -> LaurentPoly:
    return _ab_direct(mu, i, j, b_family=False)


def b_poly_direct(mu: Partition, i: int, j: int) -> LaurentPoly:
    return _ab_direct(mu, i, j, b_family=True)


# ----------------------------------------------------------------------
# compact closed forms
# ----------------------------------------------------------------------
def chi_hook(k: int, m: int, mu: Partition) -> LaurentPoly:
    """Hook shape (k, 1^(m-k)):

    chi = q^(n-m) / (q-1)^l(mu) * (-1)^(m-k) * sum_{i=k}^{m} a_{i,n-m}(mu;q) q^i.
    """
    mu = _checked((), mu)[1]
    n = sum(mu)
    if not (1 <= k <= m <= n):
        raise VariantMismatch(f"need 1 <= k <= m <= |mu|, got k={k}, m={m}, n={n}")
    s = LaurentPoly.zero("q")
    for i in range(k, m + 1):
        s = s + a_poly(mu, i, n - m).times_power(i)
    numer = s.times_power(n - m)
    if (m - k) % 2:
        numer = -numer
    return numer.div_qm1(len(mu))


def chi_two_row(k: int, m: int, mu: Partition) -> LaurentPoly:
    """Two-row shape (k, m-k):

    chi = q^n / (q-1)^l(mu) * (b_{k,m-k}(mu;q) - b_{k+1,m-k-1}(mu;q)).
    """
    mu = _checked((), mu)[1]
    n = sum(mu)
    if not (0 <= m - k <= k <= m <= n) or k < 1:
        raise VariantMismatch(f"need m-k <= k <= m <= |mu|, got k={k}, m={m}, n={n}")
    diff = b_poly(mu, k, m - k) - b_poly(mu, k + 1, m - k - 1)
    return diff.times_power(n).div_qm1(len(mu))


# ----------------------------------------------------------------------
# generating-function identities and permutation sums
# ----------------------------------------------------------------------
def _a_weighted_sum(mu: Partition, sign_i: bool, sign_j: bool) -> LaurentPoly:
    total = LaurentPoly.zero("q")
    for (i, j), c in _ab_tables(mu)[0].items():
        term = c.times_power(i + j)
        total = total + (-term if (sign_i * i + sign_j * j) % 2 else term)
    return total


def hook_content_factor(m: int) -> LaurentPoly:
    """A(m; q) = ((-q)^{m-1}(q^2+6q+1) + 4)/(q+1)^2 + 2m(-q)^{m-1}(q-1)/(q+1)
    for m >= 1, written out: (2m+1)(-q)^{m-1} + sum_{j<m-1} 4(j+1)(-q)^j."""
    terms = {j: 4 * (j + 1) * (-1) ** j for j in range(m - 1)}
    terms[m - 1] = (2 * m + 1) * (-1) ** (m - 1)
    return LaurentPoly._make("q", terms)


def _two_row_factor(m: int) -> LaurentPoly:
    """3m - 3(m-1)q^{-1} + (m-1)(m-2)(1-q^{-1})^2 / 2 for m >= 1, written out:
    C(m+2, 2) - (m^2-1)q^{-1} + C(m-1, 2)q^{-2}."""
    terms = {0: math.comb(m + 2, 2), -1: 1 - m * m, -2: math.comb(m - 1, 2)}
    return LaurentPoly._make("q", {h: c for h, c in terms.items() if c})


def identity_suite_ab(mu: Partition) -> Dict[str, bool]:
    """The four exact generating-function identities for the a/b families:
    a weighted sum over a table against a product over the parts of mu."""
    mu = tuple(mu)
    a_plain = math.prod((_QM1.times_power(p - 1) for p in mu), start=_ONE)
    a_one = math.prod(((1 - _Q) * (-_Q) ** (p - 1) for p in mu), start=_ONE)
    a_both = math.prod(((1 - _Q) * hook_content_factor(p) for p in mu), start=_ONE)
    b_plain = math.prod((_two_row_factor(p) for p in mu), start=_ONE_MINUS_QINV ** len(mu))
    return {
        "a-sum-plain": _a_weighted_sum(mu, sign_i=False, sign_j=False) == a_plain,
        "a-sum-alternate-one": _a_weighted_sum(mu, sign_i=True, sign_j=False) == a_one,
        "a-sum-alternate-both": _a_weighted_sum(mu, sign_i=True, sign_j=True) == a_both,
        "b-sum-plain": sum(_ab_tables(mu)[1].values(), LaurentPoly.zero("q")) == b_plain,
    }


def perm_sums(mu: Partition) -> Tuple[LaurentPoly, LaurentPoly]:
    """Character sums over all hook and all two-row shapes of every weight.

    Returns (sum over hooks of chi^{(m-k,1^k)}_mu,
             sum over two-row shapes of (m-2k+1) chi^{(m-k,k)}_mu),
    the k ranges being 0..m-1 and 0..floor(m/2) respectively.
    """
    mu = _checked((), mu)[1]
    n = sum(mu)
    s1 = LaurentPoly.zero("q")
    s2 = LaurentPoly.zero("q")
    for m in range(n + 1):
        for k in range(m):
            lam = (m - k,) + (1,) * k
            s1 = s1 + chi_mn(lam, mu)
        for k in range(m // 2 + 1):
            lam = (m - k, k) if k else ((m,) if m else ())
            s2 = s2 + chi_mn(lam, mu) * (m - 2 * k + 1)
    return s1, s2


def perm_sum_closed_forms(mu: Partition) -> Tuple[LaurentPoly, LaurentPoly]:
    """The closed forms the two permutation sums must equal."""
    mu = tuple(mu)
    n, l = sum(mu), len(mu)
    sign = (-1) ** (n + l)
    prod_a = math.prod((hook_content_factor(p) for p in mu), start=_ONE)
    rhs1 = (prod_a - LaurentPoly.monomial("q", n - l, sign)).exact_div(2 * sign)
    rhs2 = math.prod((_two_row_factor(p) for p in mu), start=LaurentPoly.monomial("q", n - l))
    return rhs1, rhs2


# ----------------------------------------------------------------------
# the route table and table building
# ----------------------------------------------------------------------
def is_hook(lam: Partition) -> bool:
    return len(lam) >= 1 and all(p == 1 for p in lam[1:])


def is_two_row(lam: Partition) -> bool:
    return 1 <= len(lam) <= 2


# compact form -> the shapes it covers
COMPACT_FORMS = {"hook": "a hook", "two_row": "a two-row shape"}


def _hook(lam: Partition, mu: Partition) -> LaurentPoly:
    if not is_hook(lam):
        raise VariantMismatch(f"{list(lam)} is not {COMPACT_FORMS['hook']}")
    return chi_hook(lam[0], sum(lam), mu)


def _two_row(lam: Partition, mu: Partition) -> LaurentPoly:
    if not is_two_row(lam):
        raise VariantMismatch(f"{list(lam)} is not {COMPACT_FORMS['two_row']}")
    return chi_two_row(lam[0], sum(lam), mu)


# method -> a thunk returning its route as bound now: a route rebound after import runs
_ROUTES: Dict[str, Callable[[], Callable]] = {
    "oracle": lambda: chi_oracle,
    "iterative": lambda: chi_iterative,
    "mn": lambda: chi_mn,
    "hook": lambda: _hook,
    "two_row": lambda: _two_row,
    "seminormal": lambda: seminormal.trace_standard_element,
    "auto": lambda: chi_mn,
}


def applicable(lam: Partition, mu: Partition) -> Tuple[str, ...]:
    """The methods that cover the cell (lam, mu), in ``METHODS`` order."""
    covers = {"hook": is_hook(lam), "two_row": is_two_row(lam)}
    covers["seminormal"] = sum(mu) <= seminormal.MAX_TRACE_WEIGHT
    return tuple(m for m in METHODS if covers.get(m, True))


def _resolve(methods: Sequence[str]) -> Dict[str, Callable]:
    """method -> its route, each method once, in the order given."""
    if not methods:
        raise ValueError("methods must name at least one method")
    if unknown := [m for m in methods if m not in _ROUTES]:
        raise ValueError(f"unknown method {unknown[0]!r}")
    return {m: _ROUTES[m]() for m in methods}


def compute_chi(lam: Sequence[int], mu: Sequence[int], method: str = "mn") -> LaurentPoly:
    """chi^lambda_mu by ``method``, where ``auto`` is ``mn``.  ``lam`` and ``mu`` may
    be any sequences: ``lam`` a partition and ``mu`` of positive parts, in any
    order, else ValueError."""
    return cross_checked(lam, mu, (method,))


def cross_checked(lam: Sequence[int], mu: Sequence[int], methods: Sequence[str]) -> LaurentPoly:
    """chi^lambda_mu by each of ``methods``, which must all agree.

    Raises MethodMismatch, naming every method's value, when two differ;
    otherwise returns the value.  A method listed twice runs once.
    """
    return _agreed(*_checked(lam, mu), _resolve(methods))


def _agreed(lam: Partition, mu: Partition, routes: Dict[str, Callable]) -> LaurentPoly:
    values = {}
    for method, route in routes.items():
        chi = values[method] = route(lam, mu)
        if not chi.is_ordinary():
            raise InvariantViolation(f"chi^{list(lam)}_{list(mu)} by {method} is not in Z[q]: {chi}")
    first, *others = values.values()
    if any(chi != first for chi in others):
        raise MethodMismatch(lam, mu, {m: str(c) for m, c in values.items()})
    return first


def _ordered(k: int, order: str) -> Tuple[Partition, ...]:
    """The partitions of k in ``order``: "paper", (1^k) first, or "revlex", (k) first."""
    if order not in ORDERS:
        raise ValueError(f"order must be one of {', '.join(ORDERS)}, got {order!r}")
    block = partitions_of(k)
    return tuple(reversed(block)) if order == "paper" else block


def table_rows(n: int, *, restrict: bool = False, order: str = "paper") -> Tuple[Partition, ...]:
    """Row partitions: every weight from the top down, ordered within weight."""
    top = n - 1 if restrict else n
    return tuple(lam for k in range(top, -1, -1) for lam in _ordered(k, order))


def table_columns(n: int, *, order: str = "paper") -> Tuple[Partition, ...]:
    return _ordered(n, order)


class CharacterTable:
    """All chi^lambda_mu(q) for lambda |- k <= n and mu |- n.

    When several methods are requested every cell is computed with each and
    the results cross-checked; any disagreement raises MethodMismatch.
    """

    def __init__(self, n, rows, cols, cells, restrict, order, methods):
        self.n = n
        self.rows = rows
        self.cols = cols
        self.cells = cells  # (lam, mu) -> LaurentPoly
        self.restrict = restrict
        self.order = order
        self.methods = methods

    @classmethod
    def build(
        cls,
        n: int,
        methods: Sequence[str] = ("mn",),
        *,
        restrict_lambda_lt_n: bool = False,
        order: str = "paper",
    ) -> "CharacterTable":
        methods = tuple(methods)
        routes = _resolve(methods)
        # every table has the row [], which no compact form covers
        for m, shape in COMPACT_FORMS.items():
            if m in routes:
                takes = ", ".join(applicable((), ()))
                raise VariantMismatch(f"a table takes {takes}, not {m}: its row [] is not {shape}")
        rows = table_rows(n, restrict=restrict_lambda_lt_n, order=order)
        cols = table_columns(n, order=order)
        cells = {(lam, mu): _agreed(lam, mu, routes) for lam in rows for mu in cols}
        return cls(n, rows, cols, cells, restrict_lambda_lt_n, order, methods)

    def value(self, lam: Sequence[int], mu: Sequence[int]) -> LaurentPoly:
        return self.cells[(tuple(lam), tuple(mu))]

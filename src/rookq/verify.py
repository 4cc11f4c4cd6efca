"""Self-verification suite: every structural invariant as a named check.

Each check is declared once, by ``@check(name, cap=...)``, with the highest
weight it runs at; a check that ignores the weight declares ``cap=0``.
``run_suite(n)`` runs every check at ``min(n, cap)`` and returns one
CheckResult per check, in the order they are declared here; the CLI prints
one pass/fail line per check and exits nonzero when anything fails.  A check
that compares routes reports every route's value when they disagree.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from .errors import InvariantViolation, NotGbsError, RookqError
from .exact import LaurentPoly, RationalFunction
from . import bitrace as bt
from . import characters as ch
from . import seminormal as sn
from . import shapes as sh
from . import symfunc as sf


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


ALL_CHECKS: List[Callable[[int], CheckResult]] = []


def check(name: str, cap: int):
    """Append the decorated body to ``ALL_CHECKS`` as check ``name``.  The body
    gets the weight ``min(n, cap)`` and returns None or the failure detail."""

    def register(body: Callable[[int], Optional[str]]) -> Callable[[int], CheckResult]:
        @functools.wraps(body)
        def run(n: int) -> CheckResult:
            detail = body(min(n, cap))
            return CheckResult(name, detail is None, detail or "")

        run.cap = cap
        ALL_CHECKS.append(run)
        return run

    return register


def _rand_poly(rng: random.Random, var: str = "q") -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[rng.randint(-3, 5)] = rng.randint(-6, 6)
    return LaurentPoly(var, terms)


def _route_error(lam, mu, methods) -> Optional[str]:
    """None when ``methods`` agree on chi^lam_mu in Z[q]; else the error, which
    names every route's value when they disagree."""
    try:
        ch.cross_checked(lam, mu, methods)
    except RookqError as e:
        return str(e)
    return None


@check("exact-ring-axioms", cap=0)
def check_ring_axioms(cap: int) -> Optional[str]:
    rng = random.Random(20240831)
    for _ in range(60):
        var = rng.choice("qt")
        a, b, c = (_rand_poly(rng, var) for _ in range(3))
        k, n = rng.randint(-6, 6), rng.randint(0, 4)
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
            return f"failed on {a}, {b}, {c}"
        if not b.is_zero and (a * b).exact_div(b) != a:
            return f"(a*b)/b != a for {a}, {b}"
        if a - b != a + (-b) or not a * k == a.scale(k) == a * LaurentPoly.const(k, var):
            return f"a - b or a * {k} failed on {a}, {b}"
        if a**n != math.prod([a] * n):
            return f"a**{n} failed on {a}"


@check("rf-canonical-form", cap=0)
def check_rf_canonical(cap: int) -> Optional[str]:
    rng = random.Random(97)
    for _ in range(40):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        if b.is_zero or c.is_zero:
            continue
        lhs = RationalFunction(a * c, b * c)
        rhs = RationalFunction(a, b)
        if lhs != rhs:
            return f"common factor not cancelled: {a},{b},{c}"
        if RationalFunction(rhs.num, rhs.den) != rhs:
            return "normalization is not idempotent"


@check("substitute-inverse-involution", cap=0)
def check_substitution_involution(cap: int) -> Optional[str]:
    rng = random.Random(7)
    for _ in range(40):
        f = _rand_poly(rng, "t")
        if f.substitute_inverse().substitute_inverse() != f:
            return str(f)


@check("conjugate-involution", cap=8)
def check_conjugate_involution(cap: int) -> Optional[str]:
    for k in range(cap + 1):
        for lam in sh.partitions_of(k):
            if sh.conjugate(sh.conjugate(lam)) != lam:
                return str(lam)


@check("hook-formula-square-sum", cap=7)
def check_hook_square_sum(cap: int) -> Optional[str]:
    for k in range(cap + 1):
        total = sum(sh.f_lambda(lam) ** 2 for lam in sh.partitions_of(k))
        if total != math.factorial(k):
            return f"n={k}: {total}"


@check("subcomposition-counts", cap=8)
def check_subcomposition_counts(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            # coefficient extraction from prod_i (1 + x + ... + x^{mu_i})
            coeffs = [1]
            for part in mu:
                new = [0] * (len(coeffs) + part)
                for i, c in enumerate(coeffs):
                    for j in range(part + 1):
                        new[i + j] += c
                coeffs = new
            for k in range(w + 1):
                if len(sh.subcompositions(mu, k)) != coeffs[k]:
                    return f"mu={mu}, k={k}"


@check("qn-specializations", cap=8)
def check_qn_specializations(cap: int) -> Optional[str]:
    for k in range(cap + 1):
        qn = sf.qn_expansion(k)
        hn = sf.hn_expansion(k)
        # numerators over qn.den and hn.den, compared cross-multiplied
        at0 = {rho: c.evaluate(0) * hn.den for rho, c in qn.terms()}
        if {r: c for r, c in at0.items() if c} != {
            rho: c.evaluate(0) * qn.den for rho, c in hn.terms()
        }:
            return f"t=0 mismatch at n={k}"
        if k >= 1 and any(c.evaluate(1) for _, c in qn.terms()):
            return f"q_{k}(1) != 0"


@check("qhat-lemma", cap=6)
def check_qhat_lemma(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for lam in sh.partitions_of(w):
            if sf.qhat_mu(lam) != sf.qhat_lemma_rhs(lam):
                return str(lam)


@check("schur-orthonormality", cap=6)
def check_schur_orthonormality(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        parts = sh.partitions_of(w)
        for lam in parts:
            for nu in parts:
                expected = 1 if lam == nu else 0
                if sf.inner_product(sf.schur_in_p(lam), sf.schur_in_p(nu)) != LaurentPoly.const(
                    expected, "t"
                ):
                    return f"{lam}, {nu}"


@check("adjoint-duality", cap=6)
def check_adjoint_duality(cap: int) -> Optional[str]:
    rng = random.Random(11)
    pool = [lam for w in range(cap + 1) for lam in sh.partitions_of(w)]
    for _ in range(30):
        u = sf.PExpansion({rng.choice(pool): rng.randint(1, 3)})
        v = sf.PExpansion({rng.choice(pool): rng.randint(1, 3)})
        k = rng.randint(1, max(cap, 1))
        g = sf.PExpansion.p((k,))
        if sf.inner_product(g * u, v) != sf.inner_product(u, sf.adjoint_apply(g, v)):
            return f"p_{k} on {u}, {v}"


@check("h-adjoint-routes", cap=6)
def check_h_adjoint_routes(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for k in range(w + 2):
                lhs = sf.adjoint_apply(sf.hn_expansion(k), sf.qhat_mu(mu))
                if lhs != sf.h_adjoint_combinatorial(k, mu):
                    return f"mu={mu}, k={k}"


@check("schur-decomposition", cap=6)
def check_schur_decomposition(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for lam in sh.partitions_of(w):
            head = lam[0] if lam else 0
            total = sf.combination(
                ((-1) ** (w - sum(nu) - head), sf.hn_expansion(w - sum(nu)) * sf.schur_in_p(nu))
                for nu in sh.vertical_strip_complements(lam[1:])
            )
            if total != sf.schur_in_p(lam):
                return str(lam)


@check("mn-adjoint-identity", cap=6)
def check_mn_adjoint_identity(cap: int) -> Optional[str]:
    """q_k^perp s_lam = sum over |lam/nu| = k of t^(k-1)(1-t) wt(lam/nu; k, t^-1) s_nu.
    ``gbs_weight_k`` gives the weights: a second derivation of those ``chi_mn`` uses."""
    t = LaurentPoly.monomial("t", 1)
    for w in range(1, cap + 1):
        for lam in sh.partitions_of(w):
            for k in range(1, w + 1):
                lhs = sf.adjoint_apply(sf.qn_expansion(k), sf.schur_in_p(lam))
                terms = []
                for nu in sh.sub_partitions(lam):
                    if sum(lam) - sum(nu) != k:
                        continue
                    try:
                        # wt(lam/nu; t^(-1)), built in q and swapped back to t
                        w_rev = sh.gbs_weight_k(lam, nu, k).substitute_inverse()
                    except NotGbsError:
                        continue
                    coeff = LaurentPoly.monomial("t", k - 1) * (1 - t) * w_rev
                    terms.append((coeff, sf.schur_in_p(nu)))
                if lhs != sf.combination(terms):
                    return f"lam={lam}, k={k}"


@check("cross-method-characters", cap=10)
def check_cross_methods(cap: int) -> Optional[str]:
    sn_cap = min(cap, 5)
    for w in range(cap + 1):
        routes = ("oracle", "iterative", "mn") + (("seminormal",) if w <= sn_cap else ())
        for mu in sh.partitions_of(w):
            for lam in sh.partitions_up_to(w):
                if detail := _route_error(lam, mu, routes):
                    return detail


@check("compact-formulas", cap=8)
def check_compact_formulas(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for lam in sh.partitions_up_to(w):
                for form, covers in (("hook", ch.is_hook), ("two_row", ch.is_two_row)):
                    if covers(lam) and (detail := _route_error(lam, mu, ("oracle", form))):
                        return detail


@check("q1-classical-specialization", cap=6)
def check_q1_specialization(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for lam in sh.partitions_up_to(w):
                if ch.chi_mn(lam, mu).evaluate(1) != sf.classical_char(lam, mu):
                    return f"{lam}, {mu}"


@check("chi-empty-monomial", cap=8)
def check_chi_empty(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            if ch.chi_oracle((), mu) != ch.chi_empty(mu):
                return str(mu)


@check("chi-ones-constant", cap=6)
def check_chi_ones_constant(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        ones = (1,) * w
        for lam in sh.partitions_up_to(w):
            expected = LaurentPoly.const(math.comb(w, sum(lam)) * sh.f_lambda(lam), "q")
            if ch.chi_mn(lam, ones) != expected:
                return f"{lam}"


@check("ab-families", cap=6)
def check_ab_families(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for i in range(w + 1):
                for j in range(w + 1 - i):
                    a = ch.a_poly(mu, i, j)
                    b = ch.b_poly(mu, i, j)
                    if a != ch.a_poly(mu, j, i) or b != ch.b_poly(mu, j, i):
                        return f"symmetry {mu}, {i}, {j}"
                    if a != ch.a_poly_direct(mu, i, j) or b != ch.b_poly_direct(mu, i, j):
                        return f"routes {mu}, {i}, {j}"
            report = ch.identity_suite_ab(mu)
            if not all(report.values()):
                return f"identities {mu}: {report}"


@check("perm-sums", cap=6)
def check_perm_sums(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            if not ch.perm_sums_agree(mu):
                return str(mu)


@check("hecke-diagonal-block", cap=0)
def check_hecke_block(cap: int) -> Optional[str]:
    # frozen Iwahori-Hecke anchors for the full-weight diagonal blocks
    q = LaurentPoly.monomial("q", 1)
    anchors = {
        ((2,), (2,)): q,
        ((2,), (1, 1)): LaurentPoly.one("q"),
        ((1, 1), (2,)): LaurentPoly.const(-1, "q"),
        ((1, 1), (1, 1)): LaurentPoly.one("q"),
        ((3,), (3,)): q**2,
        ((3,), (2, 1)): q,
        ((3,), (1, 1, 1)): LaurentPoly.one("q"),
        ((2, 1), (3,)): -q,
        ((2, 1), (2, 1)): q - 1,
        ((2, 1), (1, 1, 1)): LaurentPoly.const(2, "q"),
        ((1, 1, 1), (3,)): LaurentPoly.one("q"),
        ((1, 1, 1), (2, 1)): LaurentPoly.const(-1, "q"),
        ((1, 1, 1), (1, 1, 1)): LaurentPoly.one("q"),
    }
    for (lam, mu), expected in anchors.items():
        if ch.chi_mn(lam, mu) != expected:
            return f"{lam}, {mu}"


@check("bitrace-routes", cap=5)
def check_bitrace_routes(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for nu in sh.partitions_of(w):
                if bt.btr_matrix(mu, nu) != bt.btr_def(mu, nu):
                    return f"{mu}, {nu}"


@check("hl-inner-routes", cap=5)
def check_hl_inner_routes(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for alpha in sh.partitions_of(w):
            for beta in sh.partitions_of(w):
                try:
                    bt.hl_inner(alpha, beta)  # raises when the two routes disagree
                except InvariantViolation as e:
                    return str(e)


@check("regular-character", cap=5)
def check_regular_char(cap: int) -> Optional[str]:
    for w in range(min(cap, 4) + 1):
        for mu in sh.partitions_of(w):
            if bt.regular_char(mu) != bt.btr_def(mu, (1,) * w):
                return str(mu)
    for w in range(cap + 1):
        if bt.regular_char((1,) * w) != LaurentPoly.const(bt.dim_rn(w), "q"):
            return f"dim at n={w}"


@check("dimension-sequence", cap=5)
def check_dims(cap: int) -> Optional[str]:
    expected = [1, 2, 7, 34, 209, 1546]
    got = [bt.dim_rn(k) for k in range(cap + 1)]
    if got != expected[: len(got)]:
        return str(got)


@check("seminormal-relations", cap=5)
def check_seminormal_relations(cap: int) -> Optional[str]:
    for w in range(cap + 1):
        for k in range(w + 1):
            for lam in sh.partitions_of(k):
                for i in range(1, w):
                    if not sn.quadratic_check(i, lam, w):
                        return f"{lam}, n={w}, i={i}"
                for i, j in itertools.combinations(range(1, w), 2):
                    if j - i > 1 and not sn.commute_check(i, j, lam, w):
                        return f"{lam}, n={w}, ({i},{j})"


def run_suite(n: int) -> List[CheckResult]:
    """Run every check at weight n, each capped at its own declared cap."""
    return [fn(n) for fn in ALL_CHECKS]

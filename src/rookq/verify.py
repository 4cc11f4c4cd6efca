"""Self-verification suite: every structural invariant as a named check.

``run_suite(n)`` exercises the library's cross-validation properties up to
weight n (individual checks cap their weight where the computation grows
fast: the seminormal model at 5, the bitrace routes at 5).  Each check
returns a CheckResult; the CLI prints one pass/fail line per check and exits
nonzero when anything fails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from .errors import InvariantViolation, NotGbsError
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


def _rand_poly(rng: random.Random, var: str = "q") -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[rng.randint(-3, 5)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return LaurentPoly(var, terms)


def check_ring_axioms(n: int) -> CheckResult:
    rng = random.Random(20240831)
    for _ in range(60):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
            return CheckResult("exact-ring-axioms", False, f"failed on {a}, {b}, {c}")
        if not b.is_zero and (a * b).exact_div(b) != a:
            return CheckResult("exact-ring-axioms", False, f"(a*b)/b != a for {a}, {b}")
    return CheckResult("exact-ring-axioms", True)


def check_rf_canonical(n: int) -> CheckResult:
    rng = random.Random(97)
    for _ in range(40):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        if b.is_zero or c.is_zero:
            continue
        lhs = RationalFunction(a * c, b * c)
        rhs = RationalFunction(a, b)
        if lhs != rhs:
            return CheckResult("rf-canonical-form", False, f"common factor not cancelled: {a},{b},{c}")
        again = RationalFunction(rhs.num, rhs.den)
        if again != rhs:
            return CheckResult("rf-canonical-form", False, "normalization is not idempotent")
    return CheckResult("rf-canonical-form", True)


def check_substitution_involution(n: int) -> CheckResult:
    rng = random.Random(7)
    for _ in range(40):
        f = _rand_poly(rng, "t")
        if f.substitute_inverse().substitute_inverse() != f:
            return CheckResult("substitute-inverse-involution", False, str(f))
    return CheckResult("substitute-inverse-involution", True)


def check_conjugate_involution(n: int) -> CheckResult:
    for k in range(min(n, 8) + 1):
        for lam in sh.partitions_of(k):
            if sh.conjugate(sh.conjugate(lam)) != lam:
                return CheckResult("conjugate-involution", False, str(lam))
    return CheckResult("conjugate-involution", True)


def check_hook_square_sum(n: int) -> CheckResult:
    import math

    for k in range(min(n, 7) + 1):
        total = sum(sh.f_lambda(lam) ** 2 for lam in sh.partitions_of(k))
        if total != math.factorial(k):
            return CheckResult("hook-formula-square-sum", False, f"n={k}: {total}")
    return CheckResult("hook-formula-square-sum", True)


def check_subcomposition_counts(n: int) -> CheckResult:
    for w in range(min(n, 8) + 1):
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
                    return CheckResult("subcomposition-counts", False, f"mu={mu}, k={k}")
    return CheckResult("subcomposition-counts", True)


def check_qn_specializations(n: int) -> CheckResult:
    for k in range(min(n, 8) + 1):
        qn = sf.qn_expansion(k)
        hn = sf.hn_expansion(k)
        at0 = {rho: c.evaluate(0) for rho, c in qn.terms()}
        if {r: c for r, c in at0.items() if c} != {
            rho: c.evaluate(0) for rho, c in hn.terms()
        }:
            return CheckResult("qn-specializations", False, f"t=0 mismatch at n={k}")
        if k >= 1 and any(c.evaluate(1) for _, c in qn.terms()):
            return CheckResult("qn-specializations", False, f"q_{k}(1) != 0")
    return CheckResult("qn-specializations", True)


def check_qhat_lemma(n: int) -> CheckResult:
    cap = min(n, 6)
    for w in range(cap + 1):
        for lam in sh.partitions_of(w):
            if sf.qhat_mu(lam) != sf.qhat_lemma_rhs(lam):
                return CheckResult("qhat-lemma", False, str(lam))
    return CheckResult("qhat-lemma", True)


def check_schur_orthonormality(n: int) -> CheckResult:
    cap = min(n, 6)
    for w in range(cap + 1):
        parts = sh.partitions_of(w)
        for lam in parts:
            for nu in parts:
                expected = 1 if lam == nu else 0
                if sf.inner_product(sf.schur_in_p(lam), sf.schur_in_p(nu)) != LaurentPoly.const(
                    expected, "t"
                ):
                    return CheckResult("schur-orthonormality", False, f"{lam}, {nu}")
    return CheckResult("schur-orthonormality", True)


def check_adjoint_duality(n: int) -> CheckResult:
    rng = random.Random(11)
    cap = min(n, 6)
    pool = [lam for w in range(cap + 1) for lam in sh.partitions_of(w)]
    for _ in range(30):
        u = sf.PExpansion({rng.choice(pool): rng.randint(1, 3)})
        v = sf.PExpansion({rng.choice(pool): rng.randint(1, 3)})
        k = rng.randint(1, max(cap, 1))
        g = sf.PExpansion.p((k,))
        if sf.inner_product(g * u, v) != sf.inner_product(u, sf.adjoint_apply(g, v)):
            return CheckResult("adjoint-duality", False, f"p_{k} on {u}, {v}")
    return CheckResult("adjoint-duality", True)


def check_h_adjoint_routes(n: int) -> CheckResult:
    cap = min(n, 6)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for k in range(w + 2):
                lhs = sf.adjoint_apply(sf.hn_expansion(k), sf.qhat_mu(mu))
                if lhs != sf.h_adjoint_combinatorial(k, mu):
                    return CheckResult("h-adjoint-routes", False, f"mu={mu}, k={k}")
    return CheckResult("h-adjoint-routes", True)


def check_schur_decomposition(n: int) -> CheckResult:
    cap = min(n, 6)
    for w in range(cap + 1):
        for lam in sh.partitions_of(w):
            total = sf.PExpansion.zero()
            for nu in sh.vertical_strip_complements(lam[1:]):
                sign = (-1) ** (w - sum(nu) - (lam[0] if lam else 0))
                total = total + (sf.hn_expansion(w - sum(nu)) * sf.schur_in_p(nu)).scale(sign)
            if total != sf.schur_in_p(lam):
                return CheckResult("schur-decomposition", False, str(lam))
    return CheckResult("schur-decomposition", True)


def check_mn_adjoint_identity(n: int) -> CheckResult:
    cap = min(n, 6)
    t = LaurentPoly.monomial("t", 1)
    for w in range(1, cap + 1):
        for lam in sh.partitions_of(w):
            for k in range(1, w + 1):
                lhs = sf.adjoint_apply(sf.qn_expansion(k), sf.schur_in_p(lam))
                rhs = sf.PExpansion.zero()
                for nu in sh.sub_partitions(lam):
                    if sum(lam) - sum(nu) != k:
                        continue
                    try:
                        # wt(lam/nu; t^(-1)), built in q and swapped back to t
                        w_rev = sh.gbs_weight_k(lam, nu, k).substitute_inverse()
                    except NotGbsError:
                        continue
                    coeff = LaurentPoly.monomial("t", k - 1) * (1 - t) * w_rev
                    rhs = rhs + sf.schur_in_p(nu).scale(coeff)
                if lhs != rhs:
                    return CheckResult("mn-adjoint-identity", False, f"lam={lam}, k={k}")
    return CheckResult("mn-adjoint-identity", True)


def check_cross_methods(n: int) -> CheckResult:
    cap = min(n, 7)
    sn_cap = min(n, 5)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for lam in sh.partitions_up_to(w):
                a = ch.chi_oracle(lam, mu)
                if ch.chi_iterative(lam, mu) != a or ch.chi_mn(lam, mu) != a:
                    return CheckResult("cross-method-characters", False, f"{lam}, {mu}")
                if not (a.is_ordinary() and a.has_integer_coefficients()):
                    return CheckResult("cross-method-characters", False, f"not in Z[q]: {lam}, {mu}")
                if w <= sn_cap and sn.trace_standard_element(lam, mu) != a:
                    return CheckResult("cross-method-characters", False, f"trace {lam}, {mu}")
    return CheckResult("cross-method-characters", True)


def check_compact_formulas(n: int) -> CheckResult:
    cap = min(n, 6)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for lam in sh.partitions_up_to(w):
                if ch.is_hook(lam):
                    if ch.chi_hook(lam[0], sum(lam), mu) != ch.chi_oracle(lam, mu):
                        return CheckResult("compact-formulas", False, f"hook {lam}, {mu}")
                if ch.is_two_row(lam):
                    if ch.chi_two_row(lam[0], sum(lam), mu) != ch.chi_oracle(lam, mu):
                        return CheckResult("compact-formulas", False, f"two-row {lam}, {mu}")
    return CheckResult("compact-formulas", True)


def check_q1_specialization(n: int) -> CheckResult:
    cap = min(n, 6)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for lam in sh.partitions_up_to(w):
                if ch.chi_mn(lam, mu).evaluate(1) != sf.classical_char(lam, mu):
                    return CheckResult("q1-classical-specialization", False, f"{lam}, {mu}")
    return CheckResult("q1-classical-specialization", True)


def check_chi_empty(n: int) -> CheckResult:
    cap = min(n, 8)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            if ch.chi_oracle((), mu) != ch.chi_empty(mu):
                return CheckResult("chi-empty-monomial", False, str(mu))
    return CheckResult("chi-empty-monomial", True)


def check_chi_ones_constant(n: int) -> CheckResult:
    import math

    cap = min(n, 6)
    for w in range(cap + 1):
        ones = (1,) * w
        for lam in sh.partitions_up_to(w):
            expected = LaurentPoly.const(math.comb(w, sum(lam)) * sh.f_lambda(lam), "q")
            if ch.chi_mn(lam, ones) != expected:
                return CheckResult("chi-ones-constant", False, f"{lam}")
    return CheckResult("chi-ones-constant", True)


def check_ab_families(n: int) -> CheckResult:
    cap = min(n, 6)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for i in range(w + 1):
                for j in range(w + 1 - i):
                    a = ch.a_poly(mu, i, j)
                    b = ch.b_poly(mu, i, j)
                    if a != ch.a_poly(mu, j, i) or b != ch.b_poly(mu, j, i):
                        return CheckResult("ab-families", False, f"symmetry {mu}, {i}, {j}")
                    if a != ch.a_poly_direct(mu, i, j) or b != ch.b_poly_direct(mu, i, j):
                        return CheckResult("ab-families", False, f"routes {mu}, {i}, {j}")
            report = ch.identity_suite_ab(mu)
            if not all(report.values()):
                return CheckResult("ab-families", False, f"identities {mu}: {report}")
    return CheckResult("ab-families", True)


def check_perm_sums(n: int) -> CheckResult:
    cap = min(n, 6)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            if not ch.perm_sums_agree(mu):
                return CheckResult("perm-sums", False, str(mu))
    return CheckResult("perm-sums", True)


def check_hecke_block(n: int) -> CheckResult:
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
            return CheckResult("hecke-diagonal-block", False, f"{lam}, {mu}")
    return CheckResult("hecke-diagonal-block", True)


def check_bitrace_routes(n: int) -> CheckResult:
    cap = min(n, 5)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            for nu in sh.partitions_of(w):
                if bt.btr_matrix(mu, nu) != bt.btr_def(mu, nu):
                    return CheckResult("bitrace-routes", False, f"{mu}, {nu}")
    return CheckResult("bitrace-routes", True)


def check_hl_inner_routes(n: int) -> CheckResult:
    cap = min(n, 5)
    for w in range(cap + 1):
        for alpha in sh.partitions_of(w):
            for beta in sh.partitions_of(w):
                try:
                    bt.hl_inner(alpha, beta)  # raises when the two routes disagree
                except InvariantViolation as e:
                    return CheckResult("hl-inner-routes", False, str(e))
    return CheckResult("hl-inner-routes", True)


def check_regular_char(n: int) -> CheckResult:
    cap = min(n, 4)
    for w in range(cap + 1):
        for mu in sh.partitions_of(w):
            if bt.regular_char(mu) != bt.btr_def(mu, (1,) * w):
                return CheckResult("regular-character", False, str(mu))
    for w in range(min(n, 5) + 1):
        if bt.regular_char((1,) * w) != LaurentPoly.const(bt.dim_rn(w), "q"):
            return CheckResult("regular-character", False, f"dim at n={w}")
    return CheckResult("regular-character", True)


def check_dims(n: int) -> CheckResult:
    expected = [1, 2, 7, 34, 209, 1546]
    got = [bt.dim_rn(k) for k in range(min(n, 5) + 1)]
    if got != expected[: len(got)]:
        return CheckResult("dimension-sequence", False, str(got))
    return CheckResult("dimension-sequence", True)


def check_seminormal_relations(n: int) -> CheckResult:
    cap = min(n, 5)
    for w in range(cap + 1):
        for k in range(w + 1):
            for lam in sh.partitions_of(k):
                for i in range(1, w):
                    if not sn.quadratic_check(i, lam, w):
                        return CheckResult("seminormal-relations", False, f"{lam}, n={w}, i={i}")
                for i, j in itertools.combinations(range(1, w), 2):
                    if j - i > 1 and not sn.commute_check(i, j, lam, w):
                        return CheckResult(
                            "seminormal-relations", False, f"{lam}, n={w}, ({i},{j})"
                        )
    return CheckResult("seminormal-relations", True)


ALL_CHECKS: List[Callable[[int], CheckResult]] = [
    check_ring_axioms,
    check_rf_canonical,
    check_substitution_involution,
    check_conjugate_involution,
    check_hook_square_sum,
    check_subcomposition_counts,
    check_qn_specializations,
    check_qhat_lemma,
    check_schur_orthonormality,
    check_adjoint_duality,
    check_h_adjoint_routes,
    check_schur_decomposition,
    check_mn_adjoint_identity,
    check_cross_methods,
    check_compact_formulas,
    check_q1_specialization,
    check_chi_empty,
    check_chi_ones_constant,
    check_ab_families,
    check_perm_sums,
    check_hecke_block,
    check_bitrace_routes,
    check_hl_inner_routes,
    check_regular_char,
    check_dims,
    check_seminormal_relations,
]


def run_suite(n: int) -> List[CheckResult]:
    """Run every check with weight cap n; returns one result per property."""
    return [fn(n) for fn in ALL_CHECKS]

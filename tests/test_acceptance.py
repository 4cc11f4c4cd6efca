"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-rA``);
the pytest verdict itself is the pass/fail signal.  All expected values are
either frozen reference data (tests/table1_golden.py), closed forms, or
cross-validated independent routes; no tolerances are involved anywhere --
the arithmetic is exact.
"""

import itertools
import math
import time

from rookq.exact import LaurentPoly
from rookq.shapes import f_lambda, partitions_of, partitions_up_to
from rookq.symfunc import (
    adjoint_apply,
    classical_char,
    h_adjoint_combinatorial,
    hn_expansion,
    PExpansion,
    qhat_lemma_rhs,
    qhat_mu,
    qn_expansion,
    schur_in_p,
)
from rookq import shapes as sh
from rookq import characters as ch
from rookq import bitrace as bt
from rookq import seminormal as sn

from table1_golden import MUS, ROWS, TABLE1

Q = LaurentPoly.monomial("q", 1)


def _clear_character_caches():
    ch.chi_oracle.cache_clear()
    ch.chi_iterative.cache_clear()
    ch.chi_mn.cache_clear()
    ch._ab_tables.cache_clear()


def test_c1_table1_reproduction():
    """Criterion 1: the restricted weight-5 table matches the frozen reference
    byte-for-byte in canonical form, independently per method, in <10 s."""
    _clear_character_caches()
    start = time.monotonic()
    for method in ("oracle", "iterative", "mn"):
        table = ch.CharacterTable.build(
            5, methods=(method,), restrict_lambda_lt_n=True, order="paper"
        )
        assert tuple(table.cols) == tuple(MUS)
        assert tuple(table.rows) == tuple(ROWS)
        for lam in ROWS:
            got = [str(table.value(lam, mu)) for mu in MUS]
            assert got == TABLE1[lam], (method, lam, got)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"table generation took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 table1-reproduction: PASS ({elapsed:.2f}s, 3 methods x 84 cells)")


def test_c2_cross_method_equality():
    """Criterion 2: oracle = iterative = mn for every cell with n <= 6, and
    additionally = seminormal trace for n <= 5."""
    for n in range(7):
        for mu in partitions_of(n):
            for lam in partitions_up_to(n):
                a = ch.chi_oracle(lam, mu)
                assert ch.chi_iterative(lam, mu) == a, (lam, mu)
                assert ch.chi_mn(lam, mu) == a, (lam, mu)
                if n <= 5:
                    assert sn.trace_standard_element(lam, mu) == a, (lam, mu)
    print("ACCEPTANCE 2 cross-method-equality: PASS (n<=6; seminormal n<=5)")


def test_c3_compact_formula_equality():
    """Criterion 3: hook and two-row closed forms match the oracle, n <= 6."""
    hooks = two_rows = 0
    for n in range(7):
        for mu in partitions_of(n):
            for lam in partitions_up_to(n):
                if ch.is_hook(lam):
                    assert ch.chi_hook(lam[0], sum(lam), mu) == ch.chi_oracle(lam, mu), (lam, mu)
                    hooks += 1
                if ch.is_two_row(lam):
                    assert ch.chi_two_row(lam[0], sum(lam), mu) == ch.chi_oracle(lam, mu), (lam, mu)
                    two_rows += 1
    print(f"ACCEPTANCE 3 compact-formula-equality: PASS ({hooks} hook, {two_rows} two-row cells)")


def test_c4_discrepancy_adjudication():
    """Criterion 4: of the two circulating candidates for chi at
    lambda=(3,1,1), mu=(3,2,1), exactly the one vanishing at q=1 is produced.

    Adjudicated value: 2q^3 - 10q^2 + 10q - 2 (the candidate q^3 - 10q^2 +
    10q - 2 evaluates to -1 at q=1 and is rejected; the two differ by q^3,
    which traces back to a dropped (1-1/q)^3 summand in a_51 for mu=(3,2,1)).
    """
    lam, mu = (3, 1, 1), (3, 2, 1)
    winner = LaurentPoly.parse("2*q^3 - 10*q^2 + 10*q - 2", "q")
    loser = LaurentPoly.parse("q^3 - 10*q^2 + 10*q - 2", "q")
    chi = ch.chi_oracle(lam, mu)
    assert chi in (winner, loser), "value must be one of the two candidates"
    assert chi.evaluate(1) == classical_char(lam, mu) == 0
    assert chi == winner and loser.evaluate(1) != 0
    # the root cause: a_51 keeps its (1-1/q)^3 term
    qinv = LaurentPoly.monomial("q", -1)
    assert ch.a_poly(mu, 5, 1) == (1 - qinv) ** 3 + ((1 - qinv) ** 4).scale(2)
    print("ACCEPTANCE 4 discrepancy-adjudication: PASS (value 2*q^3 - 10*q^2 + 10*q - 2)")


def test_c5_identity_suites():
    """Criterion 5: the five symmetric-function/character identity families
    hold exactly for every partition of weight <= 6."""
    start = time.monotonic()
    t = LaurentPoly.monomial("t", 1)
    for w in range(7):
        for lam in partitions_of(w):
            # modified one-row expansion against its composition sum
            assert qhat_mu(lam) == qhat_lemma_rhs(lam), lam
            # adjoint route equals combinatorial route
            for k in range(w + 2):
                assert adjoint_apply(hn_expansion(k), qhat_mu(lam)) == h_adjoint_combinatorial(
                    k, lam
                ), (lam, k)
            # Schur row-peeling decomposition
            total = PExpansion.zero()
            for nu in sh.vertical_strip_complements(lam[1:]):
                sign = (-1) ** (w - sum(nu) - (lam[0] if lam else 0))
                total = total + (hn_expansion(w - sum(nu)) * schur_in_p(nu)).scale(sign)
            assert total == schur_in_p(lam), lam
            # border-strip adjoint identity for one-row Hall-Littlewood
            for k in range(1, w + 1):
                lhs = adjoint_apply(qn_expansion(k), schur_in_p(lam))
                rhs = PExpansion.zero()
                for nu in sh.sub_partitions(lam):
                    if w - sum(nu) != k:
                        continue
                    sk = sh.skew(lam, nu)
                    if sh.gbs_decompose(sk) is None:
                        continue
                    coeff = (
                        LaurentPoly.monomial("t", k - 1)
                        * (1 - t)
                        * sh.gbs_weight(sk, "t").reversed_exponents()
                    )
                    rhs = rhs + schur_in_p(nu).scale(coeff)
                assert lhs == rhs, (lam, k)
            # generating-function identities and permutation sums
            assert all(ch.identity_suite_ab(lam).values()), lam
            assert ch.perm_sums_agree(lam), lam
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5 identity-suites: PASS ({elapsed:.1f}s, all |mu| <= 6)")


def test_c6_bitrace_equivalence():
    """Criterion 6: contingency-matrix and character-sum bitraces agree on all
    ordered pairs with n <= 5; the one-row Hall-Littlewood inner product
    agrees across its two routes for n <= 5."""
    for n in range(6):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                assert bt.btr_matrix(mu, nu) == bt.btr_def(mu, nu), (mu, nu)
                bt.hl_inner(mu, nu)  # dual-route agreement asserted inside
    print("ACCEPTANCE 6 bitrace-equivalence: PASS (exhaustive n<=5)")


def test_c7_regular_character_and_dimension():
    """Criterion 7: the regular character closed form matches the bitrace
    against (1^n) for n <= 4, and equals the dimension sequence 1, 2, 7, 34,
    209, 1546 at the identity element."""
    for n in range(5):
        for mu in partitions_of(n):
            assert bt.regular_char(mu) == bt.btr_def(mu, (1,) * n), mu
    expected = [1, 2, 7, 34, 209, 1546]
    assert [bt.dim_rn(n) for n in range(6)] == expected
    for n in range(6):
        assert bt.regular_char((1,) * n) == LaurentPoly.const(expected[n], "q")
    print("ACCEPTANCE 7 regular-character-and-dimension: PASS")


def test_c8_structural_invariants():
    """Criterion 8: integer-coefficient polynomials everywhere; the empty
    shape gives q^(n - l(mu)) for n <= 8; the identity column is the constant
    C(n,|lambda|) f_lambda for n <= 6; hook-formula square sums for n <= 7."""
    for n in range(7):
        for mu in partitions_of(n):
            for lam in partitions_up_to(n):
                chi = ch.chi_mn(lam, mu)
                assert chi.is_ordinary() and chi.has_integer_coefficients(), (lam, mu)
    for n in range(9):
        for mu in partitions_of(n):
            assert ch.chi_oracle((), mu) == ch.chi_empty(mu) == LaurentPoly.monomial(
                "q", n - len(mu)
            ), mu
    for n in range(7):
        for lam in partitions_up_to(n):
            expected = LaurentPoly.const(math.comb(n, sum(lam)) * f_lambda(lam), "q")
            assert ch.chi_mn(lam, (1,) * n) == expected, lam
    for n in range(8):
        assert sum(f_lambda(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)
    print("ACCEPTANCE 8 structural-invariants: PASS")


def test_c9_seminormal_relations():
    """Criterion 9: quadratic, braid and distant-commutation relations hold
    exactly for every generator matrix and shape with n <= 5, and every trace
    lands in Z[q] with no odd powers of q^(1/2)."""
    for n in range(6):
        for lam in partitions_up_to(n):
            for i in range(1, n):
                assert sn.quadratic_check(i, lam, n), (lam, n, i)
            for i, j in itertools.combinations(range(1, n), 2):
                if j - i > 1:
                    assert sn.commute_check(i, j, lam, n), (lam, n, i, j)
    for n in range(6):
        for mu in partitions_of(n):
            for lam in partitions_up_to(n):
                chi = sn.trace_standard_element(lam, mu)
                assert chi.is_ordinary() and not chi.has_half_exponents(), (lam, mu)
    print("ACCEPTANCE 9 seminormal-relations: PASS")

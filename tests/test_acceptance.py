"""Acceptance suite: the frozen table, the adjudicated value, and every
``verify`` check, every comparison exact.

Each invariant lives in ``rookq.verify`` and nowhere else: this module runs
every check of ``verify.ALL_CHECKS`` as its own case, at the weight cap the
check declares, so the CLI and the tests run the same weights.  The two
criteria that are not invariants stand alone: criterion 1 reproduces the
frozen weight-5 table (tests/table1_golden.py) and criterion 4 adjudicates
the disputed cell.  Each test prints a single PASS line (visible with
``pytest -s`` or ``-rA``); the pytest verdict itself is the pass/fail signal.
No tolerances are involved anywhere -- the arithmetic is exact.
"""

import time

import pytest

from rookq.exact import LaurentPoly
from rookq.symfunc import classical_char
from rookq import characters as ch
from rookq import verify

from table1_golden import MUS, ROWS, TABLE1


def test_c1_table1_reproduction(clear_memos):
    """Criterion 1: the restricted weight-5 table matches the frozen reference
    byte-for-byte in canonical form, independently per method, in <10 s."""
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


@pytest.mark.parametrize("check", verify.ALL_CHECKS, ids=lambda f: f.__name__)
def test_verify_check(check):
    """Every invariant of the ``verify`` suite holds at its declared weight cap."""
    result = check(check.cap)
    assert result.ok, result.detail
    print(f"ACCEPTANCE {result.name}: PASS (weight {check.cap})")


@pytest.mark.parametrize(
    "skew, detail",
    [
        ("q", "oracle: q - 1; iterative: q"),
        ("q^-1", "chi^[1]_[2] by iterative is not in Z[q]: q^-1"),
    ],
    ids=["disagreement", "outside-zq"],
)
def test_route_failure_names_the_values(monkeypatch, skew, detail):
    """A failing route comparison reports the routes' values, not just the cell."""
    good = ch.chi_iterative

    def skewed(lam, mu):
        if (lam, mu) == ((1,), (2,)):
            return LaurentPoly.parse(skew, "q")
        return good(lam, mu)

    monkeypatch.setattr(ch, "chi_iterative", skewed)
    try:
        result = verify.check_cross_methods(3)
    finally:
        good.cache_clear()
    assert not result.ok
    assert detail in result.detail

"""Each invariant check raises when its invariant is broken, also under -O."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rookq
from rookq import bitrace, characters, cli, exact, seminormal, shapes, symfunc, verify
from rookq.errors import InvariantViolation, NonExactDivision
from rookq.exact import LaurentPoly, RationalFunction
from rookq.symfunc import PExpansion

Q = LaurentPoly.monomial("q", 1)
# a value outside Z[q]: every coefficient is an int, so only an exponent can be wrong
QINV = LaurentPoly.monomial("q", -1)


def run_optimized(script):
    """stdout of ``script`` run by ``python -O`` on this checkout."""
    src = str(Path(rookq.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestInvariantChecks:
    def test_compute_chi_value_outside_zq(self, monkeypatch):
        monkeypatch.setattr(characters, "chi_mn", lambda lam, mu: QINV)
        with pytest.raises(InvariantViolation, match=r"Z\[q\]"):
            characters.compute_chi((1,), (1,), "mn")

    def test_hl_inner_routes_disagree(self, monkeypatch):
        monkeypatch.setattr(bitrace, "q_mu", lambda mu: PExpansion.one())
        with pytest.raises(InvariantViolation, match="routes disagree"):
            bitrace.hl_inner((1,), (1,))
        result = verify.check_hl_inner_routes(1)
        assert not result.ok and "routes disagree" in result.detail

    def test_rational_function_gcd_not_a_divisor(self, monkeypatch):
        monkeypatch.setattr(exact, "_gcd", lambda a, b: {1: 1, 0: 1})
        with pytest.raises(NonExactDivision, match="gcd"):
            RationalFunction(Q, Q + 2)

    def test_half_integer_error_in_h_n(self, monkeypatch, clear_memos):
        # expansions compare in lowest terms over a common denominator; a
        # half-integer error in h_2 must still show as a difference
        expansion = symfunc.hn_expansion
        monkeypatch.setattr(
            symfunc,
            "hn_expansion",
            lambda n: expansion(n) + PExpansion({(2,): 1}, 2) if n == 2 else expansion(n),
        )
        for check in (verify.check_h_adjoint_routes, verify.check_schur_decomposition):
            result = check(2)
            assert not result.ok and result.detail

    def test_enumerate_tableaux_count(self, monkeypatch):
        monkeypatch.setattr(seminormal, "standard_count", lambda lam, n: 0)
        with pytest.raises(InvariantViolation, match="expected 0"):
            seminormal.enumerate_tableaux.__wrapped__((1,), 2)

    def test_f_lambda_hook_product(self, monkeypatch):
        monkeypatch.setattr(shapes, "hook_lengths", lambda lam: ((4,),))
        with pytest.raises(NonExactDivision, match="hook length"):
            shapes.f_lambda((2, 1))

    def test_qn_expansion_coefficients(self, monkeypatch):
        monkeypatch.setattr(symfunc, "partitions_of", lambda n: ((-1,),))
        with pytest.raises(InvariantViolation, match="polynomials in t"):
            symfunc.qn_expansion.__wrapped__(1)

    def test_check_survives_optimize_flag(self):
        script = (
            "from rookq import characters\n"
            "from rookq.errors import InvariantViolation\n"
            "from rookq.exact import LaurentPoly\n"
            "print(__debug__)\n"
            "characters.chi_mn = lambda lam, mu: LaurentPoly.monomial('q', -1)\n"
            "try:\n"
            "    characters.compute_chi((1,), (1,), 'mn')\n"
            "except InvariantViolation:\n"
            "    print('raised')\n"
        )
        assert run_optimized(script) == "False\nraised\n"

    def test_div_qm1_remainder_survives_optimize_flag(self):
        # q^2 * X(q^-1) / (q-1)^2 with X = 1 + t: the divider that the
        # Frobenius conversion runs leaves the remainder 2 on its first pass
        script = (
            "from rookq import characters\n"
            "from rookq.errors import NonExactDivision\n"
            "from rookq.exact import LaurentPoly\n"
            "print(__debug__)\n"
            "for divide in (\n"
            "    lambda: (LaurentPoly.monomial('q', 2) + 1).div_qm1(1),\n"
            "    lambda: characters.frobenius_chi(1 + LaurentPoly.monomial('t', 1), (1, 1)),\n"
            "):\n"
            "    try:\n"
            "        divide()\n"
            "    except NonExactDivision:\n"
            "        print('raised')\n"
        )
        assert run_optimized(script) == "False\nraised\nraised\n"

    def test_seminormal_trace_outside_zq(self, monkeypatch, capsys):
        # every entry of every S_g skewed, one case per failure mode: divided
        # by q, the entry 1 of S_1 on (1) becomes q^-1, which is not in Z[q];
        # with 1 added, the trace on (2,1) x (4) becomes -q^4 - q^2, which
        # its scale (q + 1)^2 does not divide
        skews = [("c.times_power(-1)", (1,), (2,)), ("c + 1", (2, 1), (4,))]
        action = seminormal._gen_action
        views = [seminormal._model]
        for skew, lam, mu in skews:
            body = f"tuple(tuple((r, {skew}) for r, c in col) for col in action(i, lam, n))"
            with monkeypatch.context() as patch:
                patch.setattr(seminormal, "_gen_action", eval("lambda i, lam, n: " + body, {"action": action}))
                try:
                    for view in views:
                        view.cache_clear()
                    with pytest.raises(InvariantViolation, match=r"not in Z\[q\]"):
                        seminormal.trace_standard_element(lam, mu)
                    argv = ["char", "--lambda", str(list(lam)), "--mu", str(list(mu))]
                    assert cli.main(argv + ["--method", "seminormal"]) == 2
                    assert "not in Z[q]" in capsys.readouterr().err
                finally:
                    for view in views:
                        view.cache_clear()
            script = (
                "from rookq import seminormal\n"
                "from rookq.errors import InvariantViolation\n"
                "print(__debug__)\n"
                "action = seminormal._gen_action\n"
                f"seminormal._gen_action = lambda i, lam, n: {body}\n"
                "try:\n"
                f"    seminormal.trace_standard_element({lam}, {mu})\n"
                "except InvariantViolation:\n"
                "    print('raised')\n"
            )
            assert run_optimized(script) == "False\nraised\n"
        # under -O the skew c + 1 is refused by the trace's one division by
        # (q + 1)^2: on a second try, with every memo warm, it is the only
        # exact_div of the trace
        script = (
            "from rookq import seminormal\n"
            "from rookq.errors import InvariantViolation\n"
            "from rookq.exact import LaurentPoly\n"
            "print(__debug__)\n"
            "action = seminormal._gen_action\n"
            "seminormal._gen_action = lambda i, lam, n: tuple(tuple((r, c + 1) for r, c in col) for col in action(i, lam, n))\n"
            "div, divisors = LaurentPoly.exact_div, []\n"
            "LaurentPoly.exact_div = lambda a, b: divisors.append(str(b)) or div(a, b)\n"
            "for attempt in range(2):\n"
            "    divisors.clear()\n"
            "    try:\n"
            "        seminormal.trace_standard_element((2, 1), (4,))\n"
            "    except InvariantViolation as exc:\n"
            "        message = str(exc)\n"
            "print(divisors, message.endswith('/(q^2 + 2*q + 1)'))\n"
        )
        assert run_optimized(script) == "False\n['q^2 + 2*q + 1'] True\n"

    def test_oracle_pairing_not_divisible_by_d_mu(self, monkeypatch, capsys, clear_memos):
        # 1/6 more p_(3) in q-hat_(3) moves the pairing for (2,1) x (3) by
        # chi^(2,1)_(3) / 6 = -1/6, which takes it out of Z[t]
        qhat_mu = symfunc.qhat_mu
        monkeypatch.setattr(
            characters, "qhat_mu", lambda mu: qhat_mu(mu) + PExpansion({(3,): 1}, 6)
        )
        with pytest.raises(InvariantViolation, match=r"X\^\[2, 1\]_\[3\] = .* is not in Z\[t\]"):
            characters.chi_oracle((2, 1), (3,))
        assert cli.main(["char", "--lambda", "[2,1]", "--mu", "[3]", "--method", "oracle"]) == 2
        assert "not in Z[t]" in capsys.readouterr().err
        script = (
            "from rookq import characters, symfunc\n"
            "from rookq.errors import InvariantViolation\n"
            "print(__debug__)\n"
            "qhat_mu = symfunc.qhat_mu\n"
            "characters.qhat_mu = lambda mu: qhat_mu(mu) + symfunc.PExpansion({(3,): 1}, 6)\n"
            "try:\n"
            "    characters.chi_oracle((2, 1), (3,))\n"
            "except InvariantViolation:\n"
            "    print('raised')\n"
        )
        assert run_optimized(script) == "False\nraised\n"

    def test_qhat_factor_outside_zt(self, monkeypatch, capsys, clear_memos):
        # 1/12 more p_(3) in q-hat_3 enters the memoised product q-hat_(3)
        # and moves the pairing for (2,1) x (3) by -1/12
        expansion = symfunc.qhat_expansion
        monkeypatch.setattr(
            symfunc, "qhat_expansion", lambda n: expansion(n) + PExpansion({(n,): 1}, 12)
        )
        with pytest.raises(InvariantViolation, match=r"X\^\[2, 1\]_\[3\] = .* is not in Z\[t\]"):
            characters.chi_oracle((2, 1), (3,))
        assert cli.main(["char", "--lambda", "[2,1]", "--mu", "[3]", "--method", "oracle"]) == 2
        assert "not in Z[t]" in capsys.readouterr().err
        script = (
            "from rookq import characters, symfunc\n"
            "from rookq.errors import InvariantViolation\n"
            "print(__debug__)\n"
            "expansion = symfunc.qhat_expansion\n"
            "symfunc.qhat_expansion = lambda n: expansion(n) + symfunc.PExpansion({(n,): 1}, 12)\n"
            "try:\n"
            "    characters.chi_oracle((2, 1), (3,))\n"
            "except InvariantViolation:\n"
            "    print('raised')\n"
        )
        assert run_optimized(script) == "False\nraised\n"

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rookq
from rookq.exact import LaurentPoly
from rookq import cli
from rookq.cli import main, parse_partition, partition_str, CLIError
from rookq.characters import chi_mn
from rookq.seminormal import MAX_TRACE_WEIGHT

from table1_golden import MUS, ROWS, TABLE1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionSyntax:
    def test_parse(self):
        assert parse_partition("[3,2,1]") == (3, 2, 1)
        assert parse_partition("[]") == ()
        assert partition_str((3, 2, 1)) == "[3,2,1]"
        assert partition_str(()) == "[]"
        assert parse_partition(" [ 3 , 2 ] ") == (3, 2)

    def test_rejects(self):
        for bad, reason in [
            ("3,2,1", "must look like"),
            ("[3,2,", "must look like"),
            ("[a]", "must be integers"),
            ("[3,,2]", "must be integers"),
            # int() alone reads these as 10, 3 and 3
            ("[1_0]", "must be integers"),
            ("[+3]", "must be integers"),
            ("[\uff13]", "must be integers"),
            ("[0]", "must be positive"),
            ("[-1]", "must be positive"),
            ("[1,2]", "weakly decreasing"),
        ]:
            with pytest.raises(CLIError, match=reason):
                parse_partition(bad)

    def test_composition_order_allowed_when_unsorted(self):
        assert parse_partition("[1,2]", sorted_required=False) == (1, 2)

    def test_max_weight_cap(self, monkeypatch):
        monkeypatch.setenv("ROOKQ_MAX_WEIGHT", "4")
        with pytest.raises(CLIError):
            parse_partition("[5]")
        monkeypatch.delenv("ROOKQ_MAX_WEIGHT")
        assert parse_partition("[5]") == (5,)


class TestCharCommand:
    def test_values(self, capsys):
        for args, expected in [
            (("--lambda", "[2,2]", "--mu", "[5]"), "0"),
            (("--lambda", "[]", "--mu", "[3,2]"), "q^3"),
            (("--lambda", "[1]", "--mu", "[2]"), "q - 1"),
        ]:
            code, out, _ = run_cli(capsys, "char", *args)
            assert code == 0
            assert out.strip() == expected

    def test_check_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "char", "--lambda", "[2,1]", "--mu", "[3,2]", "--check"
        )
        assert code == 0
        assert out.strip() == "2*q^3 - 6*q^2 + 4*q - 1"

    def test_check_flag_at_weight_cap(self, capsys, monkeypatch):
        # weight 12 is the default ROOKQ_MAX_WEIGHT; oracle, iterative, mn and
        # two_row must all finish and agree
        monkeypatch.delenv("ROOKQ_MAX_WEIGHT", raising=False)
        code, out, _ = run_cli(
            capsys, "char", "--lambda", "[7,5]", "--mu", "[3,3,3,3]", "--check"
        )
        assert code == 0
        assert out.strip() == "9*q^8 - 24*q^7 + 24*q^6 - 12*q^5 + 3*q^4"

    def test_check_reports_a_disagreeing_route(self, capsys, monkeypatch):
        import rookq.characters as chmod

        real = chmod._by_method

        def skewed(lam, mu, method):
            chi = real(lam, mu, method)
            return chi + 1 if method == "iterative" else chi

        monkeypatch.setattr(chmod, "_by_method", skewed)
        code, out, err = run_cli(
            capsys, "char", "--lambda", "[2,1]", "--mu", "[3,2]", "--check"
        )
        assert code == 2 and out == ""
        assert "mismatch" in err and "mn: " in err and "iterative: " in err

    def test_check_runs_seminormal_up_to_its_ceiling(self, capsys, monkeypatch):
        import rookq.seminormal as snmod

        real = snmod.trace_standard_element
        calls = []

        def counted(lam, mu):
            calls.append((lam, mu))
            return real(lam, mu)

        monkeypatch.setattr(snmod, "trace_standard_element", counted)
        # a weight-9 cell, the ceiling
        assert MAX_TRACE_WEIGHT == 9
        code, out, _ = run_cli(
            capsys, "char", "--lambda", "[3,2,1,1]", "--mu", "[4,3,2]", "--check"
        )
        assert code == 0 and out.strip() == "-12*q^5 + 55*q^4 - 94*q^3 + 77*q^2 - 29*q + 4"
        assert calls == [((3, 2, 1, 1), (4, 3, 2))]

    def test_check_reports_a_disagreeing_seminormal_trace(self, capsys, monkeypatch):
        import rookq.seminormal as snmod

        real = snmod.trace_standard_element
        monkeypatch.setattr(snmod, "trace_standard_element", lambda lam, mu: real(lam, mu) + 1)
        code, out, err = run_cli(
            capsys, "char", "--lambda", "[2,1]", "--mu", "[3,3]", "--check"
        )
        assert code == 2 and out == ""
        assert "mismatch" in err and "seminormal: " in err

    def test_explicit_methods(self, capsys):
        for method in ["oracle", "iterative", "mn", "seminormal"]:
            code, out, _ = run_cli(
                capsys, "char", "--lambda", "[3,1,1]", "--mu", "[3,2,1]", "--method", method
            )
            assert code == 0
            assert out.strip() == "2*q^3 - 10*q^2 + 10*q - 2"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "char", "--lambda", "nope", "--mu", "[5]")
        assert code == 3 and "error" in err
        # once printed q^9 and exited 0
        code, out, err = run_cli(capsys, "char", "--lambda", "[1_0]", "--mu", "[10]")
        assert code == 3 and out == "" and "must be integers" in err

    def test_weight_error(self, capsys):
        code, _, _ = run_cli(capsys, "char", "--lambda", "[3]", "--mu", "[2]")
        assert code == 3

    def test_seminormal_ceiling(self, capsys):
        top = MAX_TRACE_WEIGHT
        # at the ceiling the trace runs and agrees with mn
        values = []
        for method in ["seminormal", "mn"]:
            code, out, _ = run_cli(
                capsys, "char", "--lambda", f"[{top - 2},1]", "--mu", f"[{top - 1},1]",
                "--method", method,
            )
            assert code == 0
            values.append(out)
        assert values[0] == values[1]
        # one box more is refused, naming the ceiling
        for argv in [
            ("char", "--lambda", "[1]", "--mu", f"[{top + 1}]", "--method", "seminormal"),
            ("table", "--n", str(top + 1), "--methods", "mn,seminormal"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == ""
            assert f"seminormal method runs up to weight {top}" in err


class TestBitraceCommand:
    def test_value(self, capsys):
        for method in ["matrix", "def"]:
            code, out, _ = run_cli(
                capsys, "bitrace", "--mu", "[1]", "--nu", "[1]", "--method", method
            )
            assert code == 0 and out.strip() == "2"

    def test_mismatched_weights(self, capsys):
        code, _, _ = run_cli(capsys, "bitrace", "--mu", "[2]", "--nu", "[1]")
        assert code == 3

    @pytest.mark.parametrize(
        "mu, nu",
        [
            ("[1,1,1,1,1,1,1,1,1,1,1,1]", "[1,1,1,1,1,1,1,1,1,1,1,1]"),
            ("[3,2,2,1,1,1,1,1]", "[2,2,2,1,1,1,1,1,1]"),
        ],
    )
    def test_routes_agree_at_weight_cap(self, capsys, monkeypatch, mu, nu):
        # weight 12 is the default ROOKQ_MAX_WEIGHT; both routes must finish
        monkeypatch.delenv("ROOKQ_MAX_WEIGHT", raising=False)
        outputs = []
        for method in ["matrix", "def"]:
            code, out, _ = run_cli(capsys, "bitrace", "--mu", mu, "--nu", nu, "--method", method)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestDimsCommand:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--n", "4")
        assert code == 0 and out.strip() == "209"


class TestVerifyCommand:
    def test_passes_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)

    def test_weight_six_is_byte_identical(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "6")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2962e0b10cb5cc9c9f93f1124e94bf4d21b6cfb863ba26e6250ae1d54277bd91"
        )


class TestTableCommand:
    def test_csv_matches_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n", "5", "--restrict-lambda-lt-n", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda/mu"] + [partition_str(mu) for mu in MUS]
        assert len(rows) == 1 + len(ROWS)
        for row, lam in zip(rows[1:], ROWS):
            assert row[0] == partition_str(lam)
            assert row[1:] == TABLE1[lam], lam

    def test_json_schema_and_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["var"] == "q" and doc["n"] == 3
        for record in doc["records"]:
            # terms are [exponent, numerator, denominator], exponents descending
            exps = [t[0] for t in record["terms"]]
            assert exps == sorted(exps, reverse=True)
            rebuilt = {e: n for e, n, d in record["terms"]}
            assert all(d == 1 for _, _, d in record["terms"])
            assert str(LaurentPoly("q", rebuilt)) == record["value"]

    def test_json_method_is_the_first_requested(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n", "3", "--methods", "iterative,mn", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert records and all(r["method"] == "iterative" for r in records)

    def test_latex_contains_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "2", "--format", "latex")
        assert code == 0
        assert out.startswith("\\begin{tabular}")
        assert "$q$" in out and "$-1$" in out

    def test_multi_method_cross_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n", "3", "--methods", "oracle,iterative,mn,seminormal"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("lambda/mu")

    def test_order_flag(self, capsys):
        _, paper, _ = run_cli(capsys, "table", "--n", "3")
        _, revlex, _ = run_cli(capsys, "table", "--n", "3", "--order", "revlex")
        assert paper != revlex
        header = revlex.splitlines()[0]
        assert header == 'lambda/mu,[3],"[2,1]","[1,1,1]"'

    def test_weight_nine_is_byte_identical(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "9")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == "a818bece4de8ae6f9c98d6beace9c5d4"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--n", "6"), "ea62257aadddc077d3a29deaecb12171"),
            (
                ("--n", "7", "--order", "revlex", "--restrict-lambda-lt-n"),
                "473484e4d0a70415e7115eba3ceddd69",
            ),
        ],
        ids=["n6", "n7-revlex-restricted"],
    )
    def test_latex_is_byte_identical(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "table", "--format", "latex", *argv)
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == digest

    def test_round_trip_all_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "4", "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        mus = [parse_partition(col) for col in header[1:]]
        for row in rows:
            lam = parse_partition(row[0])
            assert row[1:] == [str(chi_mn(lam, mu)) for mu in mus], lam

    @pytest.mark.parametrize("argv", [("--methods", ","), ("--methods=",)])
    def test_empty_method_list_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "table", "--n", "2", *argv)
        assert code == 3 and out == ""
        assert "at least one method" in err

    @pytest.mark.parametrize("method, shape", [("hook", "a hook"), ("two_row", "a two-row shape")])
    def test_shape_restricted_method_is_refused(self, capsys, method, shape):
        code, out, err = run_cli(capsys, "table", "--n", "3", "--methods", method)
        assert code == 3 and out == ""
        assert f"is not {shape}" in err

    def test_n_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("ROOKQ_MAX_WEIGHT", "3")
        code, _, err = run_cli(capsys, "table", "--n", "4")
        assert code == 3 and "ROOKQ_MAX_WEIGHT" in err


class TestParserReuse:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Start from no parser and count the ``build_parser`` calls."""
        calls = []
        real = cli.build_parser

        def counted():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        return calls

    def test_built_once_per_process(self, capsys, builds):
        for argv in (
            ("dims", "--n", "3"),
            ("bitrace", "--mu", "[1]", "--nu", "[1]"),
            ("dims", "--n", "4"),
        ):
            assert run_cli(capsys, *argv)[0] == 0
        assert len(builds) == 1

    def test_refused_call_leaves_the_next_unchanged(self, capsys, builds):
        good = ("bitrace", "--mu", "[2,1]", "--nu", "[1,1,1]", "--method", "matrix")
        code, first, _ = run_cli(capsys, *good)
        assert code == 0
        for bad in (("table",), ("bitrace", "--mu", "[2]", "--nu", "[1]")):
            code, out, err = run_cli(capsys, *bad)
            assert code == 3 and out == "" and err.startswith("error: ")
            assert run_cli(capsys, *good) == (0, first, "")
        assert len(builds) == 1

    def test_weight_cap_read_on_every_call(self, capsys, monkeypatch, builds):
        for cap, expected in (("3", 3), ("4", 0), ("3", 3)):
            monkeypatch.setenv("ROOKQ_MAX_WEIGHT", cap)
            assert run_cli(capsys, "dims", "--n", "4")[0] == expected
        assert len(builds) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "3", "--order", "bogus"),
        ("table", "--n", "3", "--format", "xml"),
        ("bitrace", "--mu", "[1]", "--nu", "[1]", "--method", "foo"),
    ],
)
def test_choice_outside_the_list_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "invalid choice" in err


def test_closed_stdout_exits_1_without_traceback():
    """A reader that closes the pipe early (``rookq table --n 6 | head -1``)
    ends the command with exit 1 and an empty stderr.  The read end is closed
    before the command starts, so its first write always fails."""
    src = str(Path(rookq.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rookq.cli", "table", "--n", "4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_weight_twelve_is_byte_identical(capsys, monkeypatch):
    # the CLI's default weight cap, pinned so a faster strip walk cannot
    # change a single byte of the largest default table
    monkeypatch.delenv("ROOKQ_MAX_WEIGHT", raising=False)
    code, out, _ = run_cli(capsys, "table", "--n", "12")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "df8e93d035f45729798980c5a55371c1"

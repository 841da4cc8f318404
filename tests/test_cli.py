"""CLI behavior: exit codes, golden output fragments, report stability."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import availkit as ak
from availkit import analytic, cli, cutsets, model, oracle
from availkit.casestudies import dfh3_abd, dfh3_ft
from availkit.cli import main
from support import complete_graph_model, k8_and_implied_model, nested_model_text, prime_series_model, xor_parity_model


@pytest.fixture()
def abd_file(tmp_path):
    path = tmp_path / "dfh3_abd.avm"
    path.write_text(ak.serialize_model(dfh3_abd()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def primes_file(tmp_path):
    # the exact steady value has more digits than Python's int-to-str limit
    path = tmp_path / "primes.avm"
    path.write_text(ak.serialize_model(prime_series_model(800)), encoding="utf-8")
    return str(path)


def parse_exact(text):
    # int(Decimal(...)) is not subject to the int-to-str digit limit
    num, den = text.split("/")
    return Fraction(int(Decimal(num)), int(Decimal(den)))


@pytest.fixture()
def ft_file(tmp_path):
    path = tmp_path / "dfh3_ft.avm"
    path.write_text(ak.serialize_model(dfh3_ft()), encoding="utf-8")
    return str(path)


def source_env():
    """The environment with this checkout's availkit first on PYTHONPATH, for a child process."""
    src = str(Path(ak.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_model(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_exact_golden(self, abd_file, capsys):
        assert main(["analyze", abd_file, "--exact"]) == 0
        out = capsys.readouterr().out
        assert "40/343" in out
        assert "0.116618075802" in out

    def test_at_zero(self, abd_file, capsys):
        assert main(["analyze", abd_file, "--at", "0"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()]
        zero_row = next(r for r in rows if r[:2] == ["availability", "0"])
        assert zero_row[2] == "1"

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        path = write_model(tmp_path, "broken.avm", 'model "b" component A lambda=1 mu=1 abd unit B')
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "unknown component reference 'B'" in err
        assert ":" in err  # line:column position

    def test_lexical_fault_is_the_only_diagnostic(self, tmp_path, capsys):
        # a nonpositive rate (line 2) and an unknown reference (line 3) come
        # first, but a lexical fault anywhere in the text is reported alone
        text = 'model "m"\ncomponent a lambda=0 mu=1\nabd series { unit a; unit b }\n# comment with { braces\n%\n'
        assert main(["analyze", write_model(tmp_path, "lexical.avm", text)]) == 2
        assert capsys.readouterr().err == "5:1: unexpected character '%'\n"

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", "does-not-exist.avm"]) == 2

    def test_byte_order_mark_is_read(self, tmp_path, capsys):
        path = tmp_path / "bom.avm"
        path.write_bytes(b"\xef\xbb\xbf" + ak.serialize_model(dfh3_abd()).encode("utf-8"))
        assert main(["analyze", str(path), "--exact"]) == 0
        assert "40/343" in capsys.readouterr().out

    def test_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.avm"
        path.write_bytes('model "m\u00e9"\n'.encode("latin-1"))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot read {path}: 'utf-8' codec can't decode byte 0xe9 in position 8: invalid continuation byte\n"

    def test_exact_with_at_exit_2(self, abd_file, capsys):
        assert main(["analyze", abd_file, "--exact", "--at", "5"]) == 2

    def test_noncoherent_shared_leaf_exact(self, tmp_path, capsys):
        text = 'model "x" component a lambda=1 mu=1 ft xor { basic a; not { basic a } }'
        path = write_model(tmp_path, "xor.avm", text)
        assert main(["analyze", path, "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert row["exact"] == "1"
        assert row["method"] == "pivotal-decomposition"

    def test_requires_oracle_exit_3(self, tmp_path, capsys):
        # K_21's decision diagram passes the node limit
        path = write_model(tmp_path, "k21.avm", ak.serialize_model(complete_graph_model(21)))
        assert main(["analyze", path]) == 3
        err = capsys.readouterr().err
        assert f"{analytic.NODE_LIMIT}-node limit" in err
        assert "simulate" in err

    def test_many_cutsets_shared_leaf_exact(self, tmp_path, capsys):
        # 32 minimal cut sets, beyond inclusion-exclusion's 20-set limit; the
        # OR stages are free of the shared leaf s and enter the diagram as one variable
        comps = " ".join(
            f"component {c} lambda=1 mu=1"
            for c in [f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)] + ["s"]
        )
        ors = "; ".join("or { basic a%d; basic b%d }" % (i, i) for i in range(5))
        text = f'model "big" {comps} ft and {{ {ors}; basic s; basic s }}'
        path = write_model(tmp_path, "big.avm", text)
        assert main(["analyze", path, "--exact", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert row["exact"] == "243/2048"  # (3/4)^5 * 1/2
        assert row["method"] == "pivotal-decomposition"

    def test_non_finite_time_exit_2(self, abd_file, capsys):
        assert main(["analyze", abd_file, "--at", "1,inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_exact_past_int_str_digit_limit(self, primes_file, capsys):
        expected = ak.evaluate_steady(prime_series_model(800)).probability.value
        assert expected.numerator.bit_length() * math.log10(2) > 4300
        assert main(["analyze", primes_file, "--exact", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert parse_exact(row["exact"]) == expected
        assert main(["analyze", primes_file, "--exact"]) == 0
        table_row = capsys.readouterr().out.splitlines()[-1].split()
        assert table_row[3] == row["exact"]

    def test_json_report(self, abd_file, capsys):
        assert main(["analyze", abd_file, "--json", "--at", "1,2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "analyze"
        assert report["model"] == "dfh3-abd"
        assert report["results"][0]["time"] == "steady"
        assert report["results"][0]["exact"] == "40/343"
        assert [r["time"] for r in report["results"][1:]] == ["1", "2"]

    def test_json_schema_stable(self, abd_file, capsys):
        main(["analyze", abd_file, "--json"])
        first = capsys.readouterr().out
        main(["analyze", abd_file, "--json"])
        second = capsys.readouterr().out
        assert json.loads(first) == json.loads(second)
        assert list(json.loads(first)) == list(json.loads(second))


@pytest.mark.parametrize(
    "argv, line",
    [
        (["simulate", "--at", "inf"], "time must be finite and >= 0, got inf"),
        (["analyze", "--at=-1"], "time must be finite and >= 0, got -1.0"),
        (["analyze", "--at", "1,x"], "bad time value 'x' in --at"),
    ],
)
def test_bad_time_stderr_line(abd_file, capsys, argv, line):
    # a time of --at that reads as a number is checked by the rule the engines use
    assert main([argv[0], abd_file, *argv[1:]]) == 2
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["simulate", "--horizon", "-3"], "horizon must be finite and > 0, got -3.0"),
        (["simulate", "--trials", "0", "--horizon", "5"], "trials must be >= 1, got 0"),
        (["compare", "--trials", "0"], "trials must be >= 1, got 0"),
    ],
)
def test_bad_simulation_flag_stderr_line(abd_file, capsys, argv, line):
    # --trials and --horizon are checked once, by the oracle, whose message names the rule
    assert main([argv[0], abd_file, *argv[1:]]) == 2
    assert capsys.readouterr().err == line + "\n"


class TestSimulate:
    def test_deterministic_report(self, abd_file, capsys):
        args = ["simulate", abd_file, "--horizon", "300", "--trials", "30", "--seed", "7", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_seed_echoed(self, abd_file, capsys):
        assert main(["simulate", abd_file, "--horizon", "200", "--trials", "10", "--seed", "42", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 42
        assert report["results"][0]["trials"] == 10

    def test_point_rows(self, abd_file, capsys):
        assert main(["simulate", abd_file, "--at", "0,2", "--trials", "25", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["time"] for r in report["results"]] == ["0", "2"]
        assert report["results"][0]["mean"] == "1"

    def test_single_trial_has_no_standard_error(self, abd_file, capsys):
        assert main(["simulate", abd_file, "--horizon", "5", "--at", "1", "--trials", "1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        assert [row["std_error"] for row in rows] == [None, None]
        assert main(["simulate", abd_file, "--horizon", "5", "--trials", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[2].split()[3] == "n/a"

    def test_zero_trials_exit_2(self, abd_file, capsys):
        assert main(["simulate", abd_file, "--horizon", "100", "--trials", "0"]) == 2

    def test_nothing_to_do_exit_2(self, abd_file, capsys):
        assert main(["simulate", abd_file]) == 2

    def test_bad_flag_value_exit_2(self, abd_file, capsys):
        assert main(["simulate", abd_file, "--horizon", "-3"]) == 2

    @pytest.mark.parametrize("flags", [["--at", "inf"], ["--horizon", "inf"], ["--horizon", "10", "--at", "2,inf"]])
    def test_non_finite_time_or_horizon_exit_2(self, abd_file, capsys, flags):
        assert main(["simulate", abd_file, "--trials", "5"] + flags) == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert "Traceback" not in err

    def test_stream_draw_budget_exit_2(self, abd_file, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "STREAM_DRAW_LIMIT", 1000)
        assert main(["simulate", abd_file, "--trials", "5", "--at", "100000"]) == 2
        assert "per-stream limit of 1000" in capsys.readouterr().err
        assert main(["simulate", abd_file, "--trials", "5", "--horizon", "100000"]) == 2
        assert "per-stream limit of 1000" in capsys.readouterr().err

    def test_refused_time_list_names_its_largest_time(self, abd_file, capsys, monkeypatch):
        # the times are drawn to the largest one, in any order, so its draw count is the one refused
        monkeypatch.setattr(oracle, "STREAM_DRAW_LIMIT", 1000)
        assert main(["simulate", abd_file, "--trials", "5", "--at", "100000"]) == 2
        alone = capsys.readouterr().err
        for at in ("1,100000", "100000,1", "1,2,100000,3"):
            assert main(["simulate", abd_file, "--trials", "5", "--at", at]) == 2
            assert capsys.readouterr().err == alone, at

    @pytest.mark.parametrize("flags", [["--at", "1"], ["--horizon", "10"]])
    def test_trial_budget_exit_2(self, abd_file, capsys, flags):
        trials = oracle.TRIAL_LIMIT + 1
        assert main(["simulate", abd_file, "--trials", str(trials)] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"trials must be <= {oracle.TRIAL_LIMIT}, got {trials}"]


@pytest.mark.parametrize(
    "argv, row, column",
    [
        (["analyze", "--at=-0"], 3, 1),
        (["simulate", "--at=-0", "--trials", "5"], 2, 1),
        (["compare", "--at=-0", "--trials", "5", "--horizon", "50"], 3, 0),
    ],
    ids=["analyze", "simulate", "compare"],
)
def test_negative_zero_time_is_time_0(abd_file, capsys, argv, row, column):
    # -0 passes the time check; its row says 0, in the table and in --json
    name, *flags = argv
    assert main([name, abd_file, *flags, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][-1]["time"] == "0"
    assert main([name, abd_file, *flags]) == 0
    assert capsys.readouterr().out.splitlines()[row].split()[column] == "0"


SHARED_TEXT = """model "shared"
component a lambda=1 mu=3
component b lambda=1 mu=1
component c lambda=1 mu=1
ft or { and { basic a; basic b }; and { basic a; basic c } }
"""


@pytest.mark.parametrize(
    "argv", [["analyze", "--at", "0.5,1,2"], ["compare", "--at", "0.5,1,2", "--trials", "20", "--horizon", "100"]]
)
def test_decision_diagram_built_once_per_model(tmp_path, capsys, monkeypatch, argv):
    # the steady row and every time point reuse the diagram of the one parsed model
    builds = []
    build = analytic._Diagram
    monkeypatch.setattr(analytic, "_Diagram", lambda program: builds.append(program) or build(program))
    path = write_model(tmp_path, "shared.avm", SHARED_TEXT)
    assert main([argv[0], path, *argv[1:], "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert len(builds) == 1 and len(rows) == 4
    assert rows[0]["exact" if argv[0] == "analyze" else "analytic_exact"] == "3/16"


@pytest.mark.parametrize(
    "argv, uses",
    [
        (["compare", "--at", "0.5,1,2", "--trials", "20", "--horizon", "100"], 5),
        (["compare", "--trials", "20", "--horizon", "100"], 2),
    ],
    ids=["compare-at", "compare"],
)
def test_truth_table_built_once_per_model(tmp_path, capsys, monkeypatch, argv, uses):
    # enumeration in every row and the steady simulation's state table read one truth table
    tables = []
    table_of = oracle._truth_table
    monkeypatch.setattr(oracle, "_truth_table", lambda model: tables.append(table_of(model)) or tables[-1])
    path = write_model(tmp_path, "shared.avm", SHARED_TEXT)
    assert main([argv[0], path, *argv[1:], "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert len(tables) == uses and all(table is tables[0] for table in tables)
    assert not tables[0].flags.writeable
    assert rows[0]["exhaustive"] == "0.1875" and len(rows) == uses - 1


def test_node_limit_refusal_built_once_per_model(tmp_path, capsys, monkeypatch):
    # a refusal is kept with the model: the steady row and every time point
    # of one model build its diagram once
    monkeypatch.setattr(analytic, "NODE_LIMIT", 2000)
    builds = []
    build = analytic._Diagram
    monkeypatch.setattr(analytic, "_Diagram", lambda program: builds.append(program) or build(program))
    path = write_model(tmp_path, "refused.avm", ak.serialize_model(k8_and_implied_model()))
    assert main(["compare", path, "--at", "0.5,1,2", "--trials", "20", "--horizon", "100", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [row["analytic_note"] for row in rows] == ["n/a (oracle only)"] * 4
    assert len(builds) == 1


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # `availkit cutsets wide.avm --json | head -c 10`: the reader stops after
    # 10 bytes of a report larger than a pipe holds; the run still exits 0
    # and prints no traceback
    names = [f"e{i}" for i in range(4000)]
    text = 'model "wide"\n' + "".join(f"component {c} lambda=1 mu=1\n" for c in names)
    path = write_model(tmp_path, "wide.avm", text + "ft or { " + "; ".join(f"basic {c}" for c in names) + " }\n")
    cmd = [sys.executable, "-m", "availkit", "cutsets", path, "--json"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env()) as proc:
        assert proc.stdout.read(10) == b'{\n  "tool"'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, err.decode()
    assert err == b""


def test_only_steady_simulation_imports_the_executor(abd_file, tmp_path):
    # concurrent.futures loads logging, so the steady-state estimate alone imports it; in a
    # fresh process, since pytest or hypothesis may have imported it into this one
    ft_file = write_model(tmp_path, "ft.avm", ak.serialize_model(dfh3_ft()))
    script = '''
import sys
from availkit.cli import main
abd, ft = sys.argv[1:]
for argv in (["analyze", abd, "--at", "1,4"], ["simulate", abd, "--at", "1,4", "--trials", "50"], ["cutsets", ft, "--minimize"]):
    assert main(argv) == 0, argv
    assert "concurrent.futures" not in sys.modules, argv
assert main(["simulate", abd, "--horizon", "100", "--trials", "10"]) == 0
assert "concurrent.futures" in sys.modules
'''
    done = subprocess.run([sys.executable, "-c", script, abd_file, ft_file], capture_output=True, env=source_env(), timeout=120)
    assert done.returncode == 0, done.stderr.decode()


class TestCompare:
    def test_dfh3_passes(self, abd_file, capsys):
        args = ["compare", abd_file, "--trials", "60", "--horizon", "2000", "--seed", "7", "--json"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "PASS"
        row = report["results"][0]
        assert row["analytic"] == "0.116618075802"
        assert row["analytic_exact"] == "40/343"
        assert row["exhaustive"] == "0.116618075802"

    def test_exact_rows_agree_only_when_equal(self, abd_file, capsys, monkeypatch):
        # two exact values agree only when equal: 10**-15 off fails, which a tolerance would let pass
        off = analytic.AnalysisResult(analytic.Probability(Fraction(40, 343) + Fraction(1, 10**15)), "patched")
        monkeypatch.setattr(cli, "evaluate_steady", lambda model: off)
        args = ["compare", abd_file, "--trials", "60", "--horizon", "2000", "--seed", "7", "--json"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["results"][0]
        assert row["diff_analytic_exhaustive"] == "1e-15"
        assert row["verdict"] == report["verdict"] == "FAIL"

    def test_coherent_ft_exhaustive_equals_analytic(self, tmp_path, capsys):
        text = (
            'model "ft6" '
            + " ".join(f"component e{i} lambda={i}/7 mu=2/3" for i in range(1, 7))
            + " ft or { and { basic e1; basic e2 }; and { basic e3; basic e4; basic e5 }; basic e6 }"
        )
        path = write_model(tmp_path, "ft6.avm", text)
        assert main(["compare", path, "--trials", "40", "--horizon", "600", "--seed", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["results"][0]
        assert row["analytic"] == row["exhaustive"]
        assert row["verdict"] == "PASS"

    def test_noncoherent_shared_analytic_equals_exhaustive(self, tmp_path, capsys):
        text = 'model "x" component a lambda=1 mu=1 ft xor { basic a; not { basic a } }'
        path = write_model(tmp_path, "x.avm", text)
        assert main(["compare", path, "--at", "0.5", "--trials", "20", "--horizon", "100", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        steady, point = report["results"]
        assert steady["analytic_exact"] == "1"
        assert steady["analytic"] == steady["exhaustive"] == point["analytic"] == point["exhaustive"] == "1"
        assert report["verdict"] == "PASS"

    def test_noncoherent_shared_marks_oracle_only(self, tmp_path, capsys, monkeypatch):
        # the parity's diagram needs 171 nodes: past this limit only the oracles give a value
        monkeypatch.setattr(analytic, "NODE_LIMIT", 64)
        path = write_model(tmp_path, "parity.avm", ak.serialize_model(xor_parity_model(13)))
        assert main(["compare", path, "--trials", "20", "--horizon", "100", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["results"][0]
        assert row["analytic"] is None
        assert row["analytic_note"] == "n/a (oracle only)"
        assert row["exhaustive"] == "0"  # enumeration still applies
        assert report["verdict"] == "PASS"

    def test_shared_leaf_coherent_ft_pie_column(self, tmp_path, capsys):
        text = (
            'model "s" component a lambda=1/3 mu=2/3 component b lambda=1/2 mu=1/2 '
            "ft or { and { basic a; basic b }; basic a }"
        )
        path = write_model(tmp_path, "s.avm", text)
        assert main(["compare", path, "--trials", "30", "--horizon", "300", "--seed", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["results"][0]
        assert row["analytic"] == row["exhaustive"] == "0.333333333333"  # P(a down) = 1/3
        assert row["analytic_exact"] == "1/3"

    @pytest.mark.parametrize("flags", [["--at", "inf"], ["--horizon", "inf"]])
    def test_non_finite_time_or_horizon_exit_2(self, abd_file, capsys, flags):
        assert main(["compare", abd_file, "--trials", "5"] + flags) == 2
        assert "finite" in capsys.readouterr().err

    def test_analytic_exact_past_int_str_digit_limit(self, primes_file, capsys):
        args = ["compare", primes_file, "--trials", "2", "--horizon", "1", "--json"]
        assert main(args) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert parse_exact(row["analytic_exact"]) == ak.evaluate_steady(prime_series_model(800)).probability.value

    def test_point_rows_compared(self, abd_file, capsys):
        args = ["compare", abd_file, "--at", "0", "--trials", "30", "--horizon", "200", "--seed", "1", "--json"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        zero_row = report["results"][1]
        assert zero_row["time"] == "0"
        assert zero_row["analytic"] == "1"
        assert zero_row["sim_mean"] == "1"
        assert zero_row["verdict"] == "PASS"

    def test_point_trials_all_agreeing_pass(self, tmp_path, capsys, monkeypatch):
        # all 200 trials are up at t = 0.001, so the sample SE is 0; the binomial SE
        # at the exact value, sqrt(p (1 - p) / 200), judges the |diff| of 0.0016
        monkeypatch.chdir(tmp_path)
        assert main(["casestudy", "dfh3-abd", "--out", "dfh3.avm"]) == 0
        capsys.readouterr()
        assert main(["compare", "dfh3.avm", "--at", "0.001", "--trials", "200", "--seed", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        point = report["results"][1]
        assert (point["sim_mean"], point["sim_std_error"]) == ("1", "0")
        assert point["analytic"] == "0.998401539195"
        assert point["verdict"] == report["verdict"] == "PASS"

    @pytest.mark.parametrize("side", [-1, 1])
    def test_point_estimate_ten_binomial_ses_off_fails(self, abd_file, capsys, monkeypatch, side):
        # the estimate's own SE is wide, so only the binomial SE at the reference fails it
        p = ak.evaluate_point(dfh3_abd(), 2.0).probability.value
        off = oracle.Estimate(p + side * 10 * math.sqrt(p * (1 - p) / 200), 1.0, 200)
        monkeypatch.setattr(cli, "mc_point_availability", lambda model, times, cfg: [off for _ in times])
        assert main(["compare", abd_file, "--at", "2", "--trials", "200", "--horizon", "100", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        steady, point = report["results"]
        assert steady["verdict"] == "PASS"
        assert point["sim_std_error"] == "1"
        assert point["verdict"] == report["verdict"] == "FAIL"

    RARE = 'model "rare" component a lambda=1/1000000 mu=1 abd unit a'
    FAIR = 'model "fair" component a lambda=1 mu=1 abd unit a'

    def test_steady_trials_all_agreeing_pass(self, tmp_path, capsys):
        # every trial is up the whole time, so the sample SE is 0; the binomial SE at the
        # exact value, sqrt(p (1 - p) / 100) = 1e-4, judges the |diff| of 1e-6
        path = write_model(tmp_path, "rare.avm", self.RARE)
        assert main(["compare", path, "--trials", "100", "--horizon", "1000", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        (steady,) = report["results"]
        assert (steady["sim_mean"], steady["sim_std_error"]) == ("1", "0")
        assert steady["analytic_exact"] == "1000000/1000001"
        assert steady["verdict"] == report["verdict"] == "PASS"

    @pytest.mark.parametrize(
        "text, off",
        [
            # p = 1/2, SE 0: 10 binomial SEs of 100 trials off is every trial down, or up, the whole time
            (FAIR, oracle.Estimate(0.0, 0.0, 100)),
            (FAIR, oracle.Estimate(1.0, 0.0, 100)),
            # 10 of its own SEs off fails, though it is within one binomial SE (0.032 at 100 trials)
            (ak.serialize_model(dfh3_abd()), oracle.Estimate(40 / 343 + 0.01, 0.001, 100)),
        ],
    )
    def test_steady_estimate_far_off_fails(self, tmp_path, capsys, monkeypatch, text, off):
        path = write_model(tmp_path, "m.avm", text)
        monkeypatch.setattr(cli, "mc_steady_availability", lambda model, cfg: off)
        assert main(["compare", path, "--trials", "100", "--horizon", "1000", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        (steady,) = report["results"]
        assert float(steady["sim_std_error"]) == off.std_error  # the estimate's own SE is still printed
        assert steady["verdict"] == report["verdict"] == "FAIL"

    def test_single_trial_rows_fail(self, tmp_path, capsys):
        # one trial has no SE, so neither rule applies: both rows fail, though each estimate is
        # within 1e-6 of its reference
        path = write_model(tmp_path, "rare.avm", self.RARE)
        assert main(["compare", path, "--at", "2", "--trials", "1", "--horizon", "1000", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(row["sim_mean"], row["sim_std_error"], row["verdict"]) for row in report["results"]] == [
            ("1", None, "FAIL"),
            ("1", None, "FAIL"),
        ]
        assert report["verdict"] == "FAIL"


class TestCutsets:
    def test_or_gate(self, tmp_path, capsys):
        text = 'model "o" component a lambda=1 mu=1 component b lambda=1 mu=1 ft or { basic a; basic b }'
        path = write_model(tmp_path, "o.avm", text)
        assert main(["cutsets", path]) == 0
        out = capsys.readouterr().out
        assert "{a}" in out and "{b}" in out

    def test_minimize_flag(self, tmp_path, capsys):
        text = (
            'model "o" component a lambda=1 mu=1 component b lambda=1 mu=1 '
            "ft or { basic a; and { basic a; basic b } }"
        )
        path = write_model(tmp_path, "m.avm", text)
        assert main(["cutsets", path, "--json"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["cutsets"] == [["a"], ["a", "b"]]
        assert main(["cutsets", path, "--minimize", "--json"]) == 0
        minimized = json.loads(capsys.readouterr().out)
        assert minimized["cutsets"] == [["a"]]
        assert minimized["minimized"] is True

    def test_dfh3_ft_thirteen(self, ft_file, capsys):
        assert main(["cutsets", ft_file, "--minimize", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 13
        assert ["x5", "x6"] in report["cutsets"]

    def test_abd_input_exit_3(self, abd_file, capsys):
        assert main(["cutsets", abd_file]) == 3
        assert "block diagram" in capsys.readouterr().err

    def test_noncoherent_exit_3(self, tmp_path, capsys):
        text = 'model "n" component a lambda=1 mu=1 ft not { basic a }'
        path = write_model(tmp_path, "n.avm", text)
        assert main(["cutsets", path]) == 3
        assert "non-coherent" in capsys.readouterr().err


class TestCasestudy:
    def test_dfh3_abd(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["casestudy", "dfh3-abd", "--trials", "40", "--horizon", "2000", "--seed", "7"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0.116618075802" in out
        assert "PASS" in out
        assert (tmp_path / "dfh3-abd.avm").exists()

    def test_dfh3_ft(self, tmp_path, capsys):
        out_path = tmp_path / "ft.avm"
        args = ["casestudy", "dfh3-ft", "--out", str(out_path), "--trials", "30", "--horizon", "400", "--seed", "5", "--json"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "PASS"
        assert report["file"] == str(out_path)
        row = report["results"][0]
        assert row["analytic"] == row["exhaustive"]  # closed forms vs enumeration

    def test_out_devnull(self, capsys):
        # the written file is not read back, so a sink that reads back empty works
        args = ["casestudy", "dfh3-abd", "--out", os.devnull, "--trials", "30", "--horizon", "400", "--seed", "5"]
        assert main(args) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--at", "inf"], ["--horizon", "inf"]])
    def test_non_finite_time_or_horizon_exit_2(self, tmp_path, capsys, flags):
        args = ["casestudy", "dfh3-abd", "--out", str(tmp_path / "abd.avm"), "--trials", "5"] + flags
        assert main(args) == 2
        assert "finite" in capsys.readouterr().err

    def test_unknown_name_exit_2(self, capsys):
        assert main(["casestudy", "nope"]) == 2
        assert "unknown case study" in capsys.readouterr().err


class TestValidation:
    """The parser is the only checker of model text: a parsed model is valid by
    construction and is never walked again, while the engines still walk an
    API-built model once and refuse it if it is invalid."""

    RUNS = {
        "analyze-exact": ["analyze", "{abd}", "--exact"],
        "analyze-at": ["analyze", "{abd}", "--at", "10,100,1000"],
        "simulate": ["simulate", "{abd}", "--horizon", "50", "--at", "1,2", "--trials", "20"],
        "compare": ["compare", "{ft}", "--horizon", "50", "--at", "1,2", "--trials", "20"],
        "cutsets": ["cutsets", "{ft}", "--minimize"],
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_each_command_validates_once(self, abd_file, ft_file, capsys, monkeypatch, run):
        # the parser's check is the one validation: the validity walk, which steps
        # through the body with _node_children, never runs on a parsed model
        walked = []

        def counting(expr, _children=model._node_children):
            walked.append(expr)
            return _children(expr)

        monkeypatch.setattr(model, "_node_children", counting)
        argv = [arg.format(abd=abd_file, ft=ft_file) for arg in self.RUNS[run]]
        assert main(argv) == 0
        assert walked == []

    @pytest.mark.parametrize("run", RUNS)
    def test_each_command_compiles_its_model_once(self, abd_file, ft_file, capsys, monkeypatch, run):
        # the parse emits the program, so analyze, simulate and compare compile nothing and build
        # no structure node; cutsets builds the body once, from the program, and compiles it once,
        # in expand_to_cutsets.  The parse also gives each id its RatePair, which is all that any
        # command reads of the components, so none builds a ComponentDef
        calls, builds, nodes, defs = [], [], [], []
        for module in (model, analytic, oracle, cutsets):  # each module's own binding, where it has one
            if not hasattr(module, "compile_structure"):
                continue

            def counting(expr, _compile=module.compile_structure):
                calls.append(type(expr).__name__)
                return _compile(expr)

            monkeypatch.setattr(module, "compile_structure", counting)

        def building(*args, _structure=model._structure):
            builds.append(args[0])
            return _structure(*args)

        monkeypatch.setattr(model, "_structure", building)
        for cls in (model.Unit, model._Group, model.Basic, model.Nand, model.Xor, model.Not):  # each dataclass __init__

            def init(self, *args, _init=cls.__init__):
                nodes.append(type(self).__name__)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", init)

        def define(self, *args, _init=model.ComponentDef.__init__):
            defs.append(args[0])
            _init(self, *args)

        monkeypatch.setattr(model.ComponentDef, "__init__", define)
        argv = [arg.format(abd=abd_file, ft=ft_file) for arg in self.RUNS[run]]
        assert main(argv) == 0
        if run == "cutsets":
            assert len(calls) == 1 and len(builds) == 1 and nodes
        else:
            assert calls == [] and builds == [] and nodes == []
        assert defs == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: ak.evaluate_steady(m),
            lambda m: ak.evaluate_point(m, 1.0),
            lambda m: ak.mc_point_availability(m, 1.0, ak.SimConfig(trials=3, seed=1)),
            lambda m: ak.mc_steady_availability(m, ak.SimConfig(trials=3, horizon=5.0, seed=1)),
        ],
        ids=["evaluate_steady", "evaluate_point", "mc_point_availability", "mc_steady_availability"],
    )
    def test_public_entry_points_still_validate(self, call):
        dangling = ak.SystemModel("m", {"A": ak.ComponentDef("A", ak.RatePair(1, 2))}, ak.Series((ak.Unit("A"), ak.Unit("ghost"))))
        with pytest.raises(ValueError, match="invalid model: .*unknown component reference 'ghost'"):
            call(dangling)

    def test_commands_call_the_public_engines(self, abd_file, ft_file, capsys, monkeypatch):
        # perfbench/tracing.py wraps these names as bound in availkit.cli
        calls = []
        for name in ("evaluate_steady", "evaluate_point", "mc_point_availability", "mc_steady_availability"):

            def counting(*args, _name=name, _engine=getattr(cli, name)):
                calls.append(_name)
                return _engine(*args)

            monkeypatch.setattr(cli, name, counting)
        sim = ["--horizon", "5", "--at", "1", "--trials", "4"]
        curve = ["--horizon", "5", "--at", "1,2", "--trials", "4"]
        runs = [
            (["analyze", abd_file, "--at", "1,2"], ["evaluate_steady", "evaluate_point", "evaluate_point"]),
            (["simulate", abd_file] + sim, ["mc_steady_availability", "mc_point_availability"]),
            (
                ["compare", ft_file] + sim,
                ["mc_steady_availability", "mc_point_availability", "evaluate_steady", "evaluate_point"],
            ),
            # one point simulation per command, however many times: compare runs both simulations before any row
            (["simulate", abd_file] + curve, ["mc_steady_availability", "mc_point_availability"]),
            (
                ["compare", ft_file] + curve,
                ["mc_steady_availability", "mc_point_availability", "evaluate_steady", "evaluate_point", "evaluate_point"],
            ),
        ]
        for argv, expected in runs:
            calls.clear()
            assert main(argv) == 0
            assert calls == expected, argv


FUZZ_BASES = [
    ak.serialize_model(dfh3_abd()),
    ak.serialize_model(dfh3_ft()),
    'model "s"\ncomponent a lambda=1/2 mu=3\ncomponent b lambda=2 mu=5/2\n'
    "ft or {\n  and { basic a; basic b };\n  xor { basic a; not { basic b } };\n"
    "  nand { neg { basic b }; pos { basic a } }\n}\n",
]
FUZZ_RUNS = [["analyze"], ["cutsets", "--minimize"], ["simulate", "--at", "1", "--trials", "4"]]


@st.composite
def mutated_model_text(draw):
    """A base model text after 1-4 deletions, insertions or duplications of short spans."""
    text = draw(st.sampled_from(FUZZ_BASES))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(1, 6)))
        op = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(list('{};="#/.0129 \n\tx_%\u00e9\u00b2'))) + text[i:]
        else:
            text = text[:i] + text[i:j] + text[i:]
    return text


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(text=mutated_model_text())
    def test_mutated_text_exits_0_2_or_3(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "m.avm"
        path.write_text(text, encoding="utf-8")
        read = path.read_text(encoding="utf-8")  # what the CLI reads: newlines translated
        lines = read.split("\n")
        for command, *flags in FUZZ_RUNS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, str(path), *flags])
            assert code in (0, 2, 3), (command, code)
            if code == 2:
                for message in err.getvalue().splitlines():
                    position = re.match(r"(\d+):(\d+): ", message)
                    assert position, message
                    line, column = int(position[1]), int(position[2])
                    assert 1 <= line <= len(lines) and 1 <= column <= len(lines[line - 1]) + 1, message


ARGV_EDGE = ["0", "-1", "nan", "inf", "1e309", "", "abc"]
ARGV_COMMANDS = ["analyze", "simulate", "compare", "cutsets", "casestudy", "help", ""]
SIM_COMMANDS = ("simulate", "compare", "casestudy")


def token(numbers: st.SearchStrategy) -> st.SearchStrategy:
    """A flag value: a number drawn from numbers, or an edge token."""
    return st.one_of(numbers.map(str), st.sampled_from(ARGV_EDGE))


@st.composite
def fuzzed_argv(draw, targets: list, out: str) -> list:
    """A command, maybe a target, and a shuffled list of flags with edge values.

    Simulating commands always get --trials <= 50 and --horizon <= 50 (or
    an edge token), since their defaults run far longer; casestudy writes
    to out.
    """
    command = draw(st.sampled_from(ARGV_COMMANDS))
    times = st.lists(token(st.floats(0.0, 50.0)), min_size=1, max_size=3).map(",".join)
    choices = [
        ["--at", draw(times)],
        ["--seed", draw(token(st.integers(-(2**70), 2**70)))],
        ["--json"],
        ["--exact"],
        ["--minimize"],
        ["--bogus"],
        ["--help"],
    ]
    flags = draw(st.lists(st.sampled_from(choices), max_size=4))
    if command in SIM_COMMANDS:
        flags += [["--trials", draw(token(st.integers(-1, 50)))], ["--horizon", draw(token(st.floats(0.0, 50.0)))]]
    flags = draw(st.permutations(flags))
    argv = [command] + ([draw(st.sampled_from(targets))] if draw(st.booleans()) or not flags else [])
    argv += [word for flag in flags for word in flag]
    return argv + (["--out", out] if command == "casestudy" else [])


class TestArgvFuzz:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_fuzzed_argv_exits_0_2_or_3(self, tmp_path_factory, data):
        folder = tmp_path_factory.mktemp("argv")
        files = []
        for i, text in enumerate(FUZZ_BASES):
            files.append(folder / f"m{i}.avm")
            files[-1].write_text(text, encoding="utf-8")
        targets = [str(f) for f in files] + [str(folder), str(folder / "missing.avm"), "dfh3-abd", "dfh3-ft"] + ARGV_EDGE
        argv = data.draw(fuzzed_argv(targets, str(folder / "case.avm")), label="argv")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv


LIMIT_RUNS = {
    "analyze": ["analyze", "--at", "1"],
    "compare": ["compare", "--at", "1", "--trials", "20", "--horizon", "50"],
    "simulate": ["simulate", "--at", "1", "--horizon", "50", "--trials", "20"],
    "cutsets": ["cutsets", "--minimize"],
}


class TestInputLimits:
    # cut sets need a coherent fault tree
    @pytest.mark.parametrize(
        "kind, command",
        [(k, c) for k in ("abd", "coherent-ft", "ft") for c in LIMIT_RUNS if c != "cutsets" or k == "coherent-ft"],
    )
    def test_nesting_1000_deep_runs(self, tmp_path, kind, command):
        name, *flags = LIMIT_RUNS[command]
        path = write_model(tmp_path, "deep.avm", nested_model_text(kind, 1000))
        assert main([name, path, *flags]) == 0

    def test_rate_literal_past_int_string_limit_exit_2(self, tmp_path, capsys):
        path = write_model(tmp_path, "big.avm", f'model "m" component A lambda={"9" * 5000} mu=1 abd unit A')
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["1:30: number literal too long to read (5000 characters)"]

    FLOAT_RANGE_RUNS = {
        "analyze-at": ["analyze", "--at", "1"],
        "simulate-steady": ["simulate", "--horizon", "5", "--trials", "5"],
        "simulate-at": ["simulate", "--at", "1", "--trials", "5"],
        "compare": ["compare", "--trials", "5"],
    }

    @pytest.mark.parametrize("run", FLOAT_RANGE_RUNS)
    @pytest.mark.parametrize(
        "literal, problem",
        [("9" * 400, "too large"), ("0." + "0" * 400 + "1", "too small")],
        ids=["overflow", "underflow"],
    )
    def test_rate_outside_float_range_exit_2(self, tmp_path, capsys, run, literal, problem):
        # 400 nines overflow a float; 10^-401 rounds to 0.0, which only simulation cannot take
        path = write_model(tmp_path, "m.avm", f'model "m" component B lambda=1 mu=2 component A lambda={literal} mu=1 ft or {{ basic B; basic A }}')
        name, *flags = self.FLOAT_RANGE_RUNS[run]
        code = main([name, path, *flags])
        err = capsys.readouterr().err.splitlines()
        if run == "analyze-at" and problem == "too small":
            assert code == 0 and err == []
        else:
            assert code == 2
            assert len(err) == 1 and f"rate of component 'A' is {problem} for floating point" in err[0]

    def test_both_rates_below_float_range_exit_2(self, tmp_path, capsys):
        # both rates round to 0.0, so no point availability exists in floating point
        tiny = "0." + "0" * 400 + "1"
        path = write_model(tmp_path, "m.avm", f'model "m" component A lambda={tiny} mu={tiny} abd unit A')
        assert main(["analyze", path, "--at", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "the rates of component 'A' are too small for floating point; only exact steady-state analysis applies"
        ]

    @pytest.mark.parametrize(
        "flags", [["analyze", "--at", "0,1"], ["compare"]], ids=["analyze-at", "compare"]
    )
    def test_rates_summing_past_float_range_exit_2(self, tmp_path, capsys, flags):
        # each rate is a float, their sum is not: no point value and no durations in floating point
        path = write_model(tmp_path, "m.avm", f'model "m" component A lambda={10 ** 308} mu={10 ** 308} abd unit A')
        name, *rest = flags
        assert main([name, path, *rest]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "the sum of the rates of component 'A' is too large for floating point; only exact steady-state analysis applies"
        ]

    @pytest.mark.parametrize("flags", [["--horizon", "1e10"], ["--at", "1e10"]], ids=["steady", "point"])
    def test_stream_past_float_range_exit_2(self, tmp_path, capsys, flags):
        # rates of 10^300 have a finite sum, but 10^10 time units hold more cycles than a float counts
        path = write_model(tmp_path, "m.avm", f'model "m" component A lambda={10 ** 300} mu={10 ** 300} abd unit A')
        assert main(["simulate", path, *flags, "--trials", "3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("simulation refused:") and "per-stream limit" in err[0]

    @pytest.mark.parametrize(
        "argv, count",
        [(["compare"], "1e+304"), (["simulate", "--horizon", "1e10"], "more than 1.8e+308")],
        ids=["compare", "past-float-range"],
    )
    def test_stream_refusal_prints_a_short_count(self, tmp_path, capsys, monkeypatch, argv, count):
        # the words of the expected cycles alone, 2 * 10000 / (2 * 10**-300) for compare's
        # default horizon and inf at 1e10, refused before the first round is sized or drawn
        path = write_model(tmp_path, "m.avm", f'model "m" component A lambda={10 ** 300} mu={10 ** 300} abd unit A')
        draws = []
        monkeypatch.setattr(oracle, "_draw", lambda *args: draws.append(args))
        name, *rest = argv
        assert main([name, path, *rest]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and len(err[0]) < 200
        assert f"would draw {count} random words" in err[0] and f"limit of {oracle.STREAM_DRAW_LIMIT}" in err[0]
        assert draws == []

    def test_rate_past_float_range_stays_exact(self, tmp_path, capsys):
        big = 10 ** 400 - 1
        path = write_model(tmp_path, "m.avm", f'model "m" component A lambda={big} mu=1 abd unit A')
        assert main(["analyze", path, "--exact", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert parse_exact(row["exact"]) == Fraction(1, big + 1)


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_version_exit_0(self, capsys):
        assert main(["--version"]) == 0
        assert "availkit" in capsys.readouterr().out


def run_main(argv):
    """main's exit code, stdout and stderr for one argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    """main builds its argument parser once per process and reuses it, and a
    reused parser answers every argv as a freshly built one does."""

    def test_no_parser_built_per_call(self, abd_file, ft_file, tmp_path, monkeypatch):
        run_main(["--version"])  # builds the parser, unless an earlier call did
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        sim = ["--trials", "5", "--horizon", "5"]
        runs = [
            (["analyze", abd_file, "--exact"], 0),
            (["analyze", abd_file, "--at", "1,2"], 0),
            (["analyze", ft_file, "--json"], 0),
            (["analyze", abd_file, "--exact", "--at", "1"], 2),
            (["analyze", str(tmp_path / "missing.avm")], 2),
            (["simulate", abd_file, "--at", "1", "--trials", "5"], 0),
            (["simulate", abd_file, "--seed", "3", *sim], 0),
            (["simulate", ft_file, "--at", "1", "--json", *sim], 0),
            (["simulate", abd_file], 2),
            (["compare", abd_file, *sim], 0),
            (["compare", ft_file, "--at", "1", *sim], 0),
            (["compare", abd_file, "--at", "0", "--json", *sim], 0),
            (["cutsets", ft_file], 0),
            (["cutsets", ft_file, "--minimize", "--json"], 0),
            (["cutsets", ft_file, "--minimize"], 0),
            (["cutsets", abd_file], 3),
            (["casestudy", "dfh3-abd", "--out", str(tmp_path / "abd.avm"), *sim], 0),
            (["casestudy", "dfh3-ft", "--out", str(tmp_path / "ft.avm"), "--json", *sim], 0),
            (["casestudy", "nosuch", "--out", str(tmp_path / "x.avm")], 2),
            (["--version"], 0),
            (["--help"], 0),
            (["analyze", "--help"], 0),
            ([], 2),
            (["frobnicate"], 2),
            (["simulate", abd_file, "--trials", "x"], 2),
        ]
        for argv, code in runs:
            assert run_main(argv)[0] == code, argv
        assert built == []
        cli.build_parser.__wrapped__()  # the count sees a build: the parser and its five subparsers
        assert built == ["availkit"] + [f"availkit {name}" for name in ("analyze", "simulate", "compare", "cutsets", "casestudy")]

    def test_reuse_leaks_no_state(self, abd_file, tmp_path, monkeypatch):
        runs = [
            ["analyze", abd_file, "--exact"],
            ["analyze", abd_file, "--at", "1,2"],  # --exact does not carry over
            ["simulate", abd_file, "--at", "1"],
            ["simulate", abd_file, "--at", "1", "--trials", "7", "--seed", "3"],  # nor do these values
            ["compare", abd_file, "--horizon", "5"],
            ["casestudy", "dfh3-ft", "--out", str(tmp_path / "ft.avm"), "--horizon", "5"],
            ["--help"],
            ["analyze", "--help"],
            ["--version"],
            ["simulate", "f.avm", "--trials", "x"],
            ["frobnicate"],
        ]
        reused = [run_main(argv) for argv in runs + runs[::-1]]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = [run_main(argv) for argv in runs]
        assert reused == fresh + fresh[::-1]
        # each command keeps its own default trial count
        assert [re.search(r"trials=(\d+)", out).group(1) for _, out, _ in fresh[2:6]] == ["1000", "7", "200", "200"]
        assert [result[0] for result in fresh[6:]] == [0, 0, 0, 2, 2]

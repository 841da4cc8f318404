"""CLI behavior: exit codes, golden output fragments, report stability."""

import contextlib
import io
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import availkit as ak
from availkit import analytic, cli, model, modelfile, oracle
from availkit.casestudies import dfh3_abd, dfh3_ft
from availkit.cli import main
from availkit.modelfile import NESTING_LIMIT
from support import complete_graph_model, nested_model_text, prime_series_model, xor_parity_model


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

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", "does-not-exist.avm"]) == 2

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

    @pytest.mark.parametrize("flags", [["--at", "1"], ["--horizon", "10"]])
    def test_trial_budget_exit_2(self, abd_file, capsys, flags):
        trials = oracle.TRIAL_LIMIT + 1
        assert main(["simulate", abd_file, "--trials", str(trials)] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"trials must be <= {oracle.TRIAL_LIMIT}, got {trials}"]

    def test_threads_default_from_env(self, abd_file, capsys, monkeypatch):
        monkeypatch.setenv("AVAILKIT_THREADS", "3")
        assert main(["simulate", abd_file, "--horizon", "100", "--trials", "12", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 3

    def test_bad_env_threads_exit_2(self, abd_file, capsys, monkeypatch):
        monkeypatch.setenv("AVAILKIT_THREADS", "many")
        assert main(["simulate", abd_file, "--horizon", "100", "--trials", "5"]) == 2

    def test_explicit_threads_beats_env(self, abd_file, capsys, monkeypatch):
        monkeypatch.setenv("AVAILKIT_THREADS", "many")  # not consulted when --threads given
        args = ["simulate", abd_file, "--horizon", "100", "--trials", "12", "--threads", "2", "--json"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 2


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
        assert row["analytic"] == row["exhaustive"]  # PIE route vs enumeration

    @pytest.mark.parametrize("flags", [["--at", "inf"], ["--horizon", "inf"]])
    def test_non_finite_time_or_horizon_exit_2(self, tmp_path, capsys, flags):
        args = ["casestudy", "dfh3-abd", "--out", str(tmp_path / "abd.avm"), "--trials", "5"] + flags
        assert main(args) == 2
        assert "finite" in capsys.readouterr().err

    def test_unknown_name_exit_2(self, capsys):
        assert main(["casestudy", "nope"]) == 2
        assert "unknown case study" in capsys.readouterr().err


class TestValidation:
    """parse_model validates; the engines the commands call reuse the model's cached findings."""

    RUNS = {
        "analyze-exact": ["analyze", "{abd}", "--exact"],
        "analyze-at": ["analyze", "{abd}", "--at", "10,100,1000"],
        "simulate": ["simulate", "{abd}", "--horizon", "50", "--at", "1,2", "--trials", "20"],
        "compare": ["compare", "{ft}", "--horizon", "50", "--at", "1,2", "--trials", "20"],
        "cutsets": ["cutsets", "{ft}", "--minimize"],
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_each_command_validates_once(self, abd_file, ft_file, capsys, monkeypatch, run):
        calls = []
        for module in (modelfile, analytic, oracle):  # each module's own binding

            def counting(model, _validate=module.validate):
                calls.append(model.name)
                return _validate(model)

            monkeypatch.setattr(module, "validate", counting)
        argv = [arg.format(abd=abd_file, ft=ft_file) for arg in self.RUNS[run]]
        assert main(argv) == 0
        assert len(calls) == 1, calls

    @pytest.mark.parametrize("run", [r for r in RUNS if r != "cutsets"])
    def test_each_command_compiles_its_model_once(self, abd_file, ft_file, capsys, monkeypatch, run):
        # analyze --at 10,100,1000 runs the steady and three point evaluations on one compiled program
        calls = []
        for module in (model, analytic, oracle):  # each module's own binding, where it has one
            if not hasattr(module, "compile_structure"):
                continue

            def counting(expr, _compile=module.compile_structure):
                calls.append(type(expr).__name__)
                return _compile(expr)

            monkeypatch.setattr(module, "compile_structure", counting)
        argv = [arg.format(abd=abd_file, ft=ft_file) for arg in self.RUNS[run]]
        assert main(argv) == 0
        assert len(calls) == 1, calls

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
        runs = [
            (["analyze", abd_file, "--at", "1,2"], ["evaluate_steady", "evaluate_point", "evaluate_point"]),
            (["simulate", abd_file] + sim, ["mc_steady_availability", "mc_point_availability"]),
            (
                ["compare", ft_file] + sim,
                ["evaluate_steady", "mc_steady_availability", "evaluate_point", "mc_point_availability"],
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
        ["--threads", draw(token(st.integers(-2, 8)))],
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
    def test_nesting_at_limit_runs_and_past_it_exit_2(self, tmp_path, capsys, kind, command):
        name, *flags = LIMIT_RUNS[command]
        at_limit = write_model(tmp_path, "limit.avm", nested_model_text(kind, NESTING_LIMIT))
        assert main([name, at_limit, *flags]) == 0
        capsys.readouterr()
        past = write_model(tmp_path, "past.avm", nested_model_text(kind, NESTING_LIMIT + 1))
        assert main([name, past, *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"nesting deeper than {NESTING_LIMIT} levels")
        assert err[0].split(":")[0].isdigit() and err[0].split(":")[1].isdigit()

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

"""The package's public surface: availkit.__all__, SimConfig's fields, the CLI's removed --threads flag and the --json keys change only on purpose, with a CHANGES.md entry."""

import dataclasses
import json

import pytest

import availkit
from availkit.casestudies import dfh3_abd, dfh3_ft
from availkit.cli import main

PUBLIC = [
    "__version__",
    "RatePair",
    "ComponentDef",
    "Unit",
    "Series",
    "Parallel",
    "BlockExpr",
    "Basic",
    "And",
    "Or",
    "Nor",
    "Nand",
    "Xor",
    "Not",
    "GateExpr",
    "SystemModel",
    "Diagnostic",
    "validate",
    "basic_events",
    "Probability",
    "AnalysisResult",
    "RequiresOracleError",
    "CutSetLimitError",
    "steady_availability",
    "steady_unavailability",
    "inst_availability",
    "inst_unavailability",
    "reliability_exp",
    "series_steady",
    "parallel_steady",
    "series_parallel_steady",
    "parallel_series_steady",
    "and_gate_unavail",
    "or_gate_unavail",
    "nor_gate_unavail",
    "nand_gate_unavail",
    "xor_gate_unavail",
    "not_gate_unavail",
    "pie_probability",
    "evaluate_steady",
    "evaluate_point",
    "CutSetCollection",
    "NonCoherentError",
    "ExpansionLimitError",
    "is_coherent",
    "expand_to_cutsets",
    "minimize",
    "SimConfig",
    "Estimate",
    "structure_holds",
    "exhaustive_probability",
    "mc_point_availability",
    "mc_steady_availability",
    "SourceSpan",
    "ParseDiagnostic",
    "ModelFileError",
    "parse_model",
    "serialize_model",
]


def test_all_is_the_pinned_surface():
    assert availkit.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(availkit, name), name


def test_sim_config_fields_and_defaults():
    fields = [(f.name, f.default) for f in dataclasses.fields(availkit.SimConfig)]
    assert fields == [("trials", dataclasses.MISSING), ("horizon", None), ("seed", 0)]


def test_threads_flag_and_field_removed(tmp_path, capsys):
    # --threads and SimConfig.threads changed no result and are gone: both are now usage errors
    path = tmp_path / "dfh3_abd.avm"
    path.write_text(availkit.serialize_model(dfh3_abd()), encoding="utf-8")
    args = ["simulate", str(path), "--threads", "4", "--horizon", "50", "--trials", "5", "--json"]
    assert main(args) == 2
    assert "--threads" in capsys.readouterr().err
    with pytest.raises(TypeError):
        availkit.SimConfig(trials=1, threads=2)


TOP = ["tool", "version", "command", "model"]
SIM_TOP = TOP + ["seed", "trials", "horizon", "results"]
ESTIMATE_ROW = ["quantity", "time", "mean", "std_error", "trials"]
COMPARE_ROW = [
    "quantity",
    "time",
    "analytic",
    "analytic_exact",
    "analytic_note",
    "exhaustive",
    "exhaustive_note",
    "sim_mean",
    "sim_std_error",
    "diff_analytic_exhaustive",
    "diff_reference_sim",
    "verdict",
]
SCHEMA = {
    "analyze": (["analyze", "abd", "--at", "1", "--json"], TOP + ["results"], ["quantity", "time", "value", "exact", "method"]),
    "simulate-horizon": (["simulate", "abd", "--horizon", "20", "--trials", "3", "--json"], SIM_TOP, ESTIMATE_ROW),
    "simulate-at": (["simulate", "abd", "--at", "1", "--trials", "3", "--json"], SIM_TOP, ESTIMATE_ROW),
    "compare": (["compare", "abd", "--at", "1", "--horizon", "20", "--trials", "3", "--json"], SIM_TOP + ["verdict"], COMPARE_ROW),
    "casestudy": (["casestudy", "dfh3-ft", "--out", "case", "--horizon", "20", "--trials", "3", "--json"], SIM_TOP + ["verdict", "file"], COMPARE_ROW),
    "cutsets": (["cutsets", "ft", "--minimize", "--json"], TOP + ["minimized", "count", "cutsets"], None),
}


@pytest.mark.parametrize("run", SCHEMA)
def test_json_schema(tmp_path, capsys, run):
    # the --json keys are a contract: a new or removed key has to change this table
    names = {"abd": dfh3_abd().name, "ft": dfh3_ft().name, "dfh3-ft": dfh3_ft().name}
    for name, model in (("abd", dfh3_abd()), ("ft", dfh3_ft())):
        (tmp_path / f"{name}.avm").write_text(availkit.serialize_model(model), encoding="utf-8")
    words, top, row = SCHEMA[run]
    argv = [str(tmp_path / f"{word}.avm") if word in ("abd", "ft", "case") else word for word in words]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == top
    assert (report["command"], report["model"]) == (words[0], names[words[1]])
    if run == "casestudy":
        assert report["file"] == str(tmp_path / "case.avm")
    if row is not None:
        assert report["results"] and all(list(r) == row for r in report["results"])

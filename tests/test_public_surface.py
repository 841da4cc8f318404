"""The package's public surface: availkit.__all__, SimConfig and the CLI's --threads change only on purpose, with a CHANGES.md entry."""

import dataclasses
import json

import availkit
from availkit.casestudies import dfh3_abd
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
    assert fields == [("trials", dataclasses.MISSING), ("horizon", None), ("seed", 0), ("threads", 1)]


def test_threads_flag_accepted_and_reported(tmp_path, capsys):
    # --threads changes no result, but stays a valid flag and a --json key
    path = tmp_path / "dfh3_abd.avm"
    path.write_text(availkit.serialize_model(dfh3_abd()), encoding="utf-8")
    args = ["simulate", str(path), "--threads", "4", "--horizon", "50", "--trials", "5", "--json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["threads"] == 4

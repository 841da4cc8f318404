"""The package's public surface: availkit.__all__ changes only on purpose, with a CHANGES.md entry."""

import availkit

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

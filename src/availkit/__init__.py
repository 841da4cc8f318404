"""Availability analysis of repairable systems.

Models systems as availability block diagrams or unavailability fault
trees over components with exponential failure/repair rates, evaluates
them with exact closed forms (pivotal decomposition on components shared
by several leaves, with inclusion-exclusion over minimal cut sets past
its pivot limit), and cross-checks every closed form against exhaustive
enumeration and alternating-renewal Monte-Carlo simulation.
"""

__version__ = "0.1.0"

from .analytic import (
    AnalysisResult,
    CutSetLimitError,
    Probability,
    RequiresOracleError,
    and_gate_unavail,
    evaluate_point,
    evaluate_steady,
    inst_availability,
    inst_unavailability,
    nand_gate_unavail,
    nor_gate_unavail,
    not_gate_unavail,
    or_gate_unavail,
    parallel_series_steady,
    parallel_steady,
    pie_probability,
    reliability_exp,
    series_parallel_steady,
    series_steady,
    steady_availability,
    steady_unavailability,
    xor_gate_unavail,
)
from .cutsets import (
    CutSetCollection,
    ExpansionLimitError,
    NonCoherentError,
    expand_to_cutsets,
    is_coherent,
    minimize,
)
from .model import (
    And,
    Basic,
    BlockExpr,
    ComponentDef,
    Diagnostic,
    GateExpr,
    Nand,
    Nor,
    Not,
    Or,
    Parallel,
    RatePair,
    Series,
    SystemModel,
    Unit,
    Xor,
    basic_events,
    validate,
)
from .modelfile import ModelFileError, ParseDiagnostic, SourceSpan, parse_model, serialize_model
from .oracle import (
    Estimate,
    SimConfig,
    exhaustive_probability,
    mc_point_availability,
    mc_steady_availability,
    structure_holds,
)

__all__ = [
    "__version__",
    # model
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
    # analytic
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
    # cutsets
    "CutSetCollection",
    "NonCoherentError",
    "ExpansionLimitError",
    "is_coherent",
    "expand_to_cutsets",
    "minimize",
    # oracle
    "SimConfig",
    "Estimate",
    "structure_holds",
    "exhaustive_probability",
    "mc_point_availability",
    "mc_steady_availability",
    # modelfile
    "SourceSpan",
    "ParseDiagnostic",
    "ModelFileError",
    "parse_model",
    "serialize_model",
]

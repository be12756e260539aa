"""Numerical level curves of rational functions.

Trace the sets {z : |f(z)| = eps} for polynomials, rational functions and
ratios of finite Blaschke products; extract their planar-graph structure;
order them by nesting; and decompose the complement of the critical set into
annular pieces carrying an explicit conformal map phi with f == phi^M.
"""

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    CertificateError,
    FunctionSpecError,
    LevelCurveError,
    RootFindingError,
    TopologyError,
    TraceError,
)
from .funcspace import (
    INF,
    Polynomial,
    RationalFn,
    find_roots,
    parse_function_spec,
    random_polynomial,
)
from .tracer import LevelCurveComponent, TracedArc, find_seeds, trace_component, trace_level_set
from .levelgraph import LevelGraph, build_graph, face_count, face_of_point, zeros_per_face
from .gauss_lucas import HullReport, ReplayWitness, check_gauss_lucas, replay_level_curve_argument
from .metrics import ContinuityCertificate, HausdorffReport, continuity_probe, hausdorff
from .order_topology import (
    CriticalSetC,
    CurveRef,
    critical_level_curves,
    maximal_component,
    precedes,
    separating_curve,
    two_curve_critical_witness,
)
from .annulus_decomp import AnnularRegion, PhiGrid, build_phi, decompose, verify_phi, winding_N

__version__ = "0.1.0"

__all__ = [
    "AnnularRegion",
    "CertificateError",
    "ContinuityCertificate",
    "CriticalSetC",
    "CurveRef",
    "DEFAULT_TOLS",
    "FunctionSpecError",
    "HausdorffReport",
    "HullReport",
    "INF",
    "LevelCurveComponent",
    "LevelCurveError",
    "LevelGraph",
    "PhiGrid",
    "Polynomial",
    "RationalFn",
    "ReplayWitness",
    "RootFindingError",
    "TopologyError",
    "TraceError",
    "TracedArc",
    "Tolerances",
    "build_graph",
    "build_phi",
    "check_gauss_lucas",
    "continuity_probe",
    "critical_level_curves",
    "decompose",
    "face_count",
    "face_of_point",
    "find_roots",
    "find_seeds",
    "hausdorff",
    "maximal_component",
    "parse_function_spec",
    "precedes",
    "random_polynomial",
    "replay_level_curve_argument",
    "separating_curve",
    "trace_component",
    "trace_level_set",
    "two_curve_critical_witness",
    "verify_phi",
    "winding_N",
    "zeros_per_face",
]

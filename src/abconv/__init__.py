"""Conjugates, subdifferentials, and composite duality over abstract
function classes of generalized quadratics."""

from .conjugates import (
    ConjugateValue,
    FamilySearchGrid,
    GridSpec,
    biconjugate_at,
    biconjugate_many,
    conjugate_closed_form,
    conjugate_grid,
    conjugate_value,
    dom_conjugate_probe,
    eps_subdiff_contains,
    family_conjugate_table,
    is_phi_convex_at,
    minimize_quadratic,
)
from .catalog import CheckRow, catalog_instance, catalog_names, reproduce_checks
from .duality import (
    ConditionCheck,
    Decomposition,
    DualResult,
    EpiPoint,
    GapCertificate,
    OptimalityCheck,
    PrimalResult,
    ProblemInstance,
    build_tangent_certificate,
    composite_condition_check,
    composite_inf_table,
    coupling_value,
    dcp_value,
    decomposition_condition_check,
    epi_contains,
    epi_decompose,
    g_conjugate_table,
    perturbation_conjugate_zero,
    primal_value,
    verify_gap_certificate,
    verify_optimality_at,
    weak_duality_check,
)
from .errors import InstanceParseError, InvariantViolation, UnknownCatalogName
from .instances import (
    certificate_from_dict,
    certificate_to_dict,
    dumps,
    instance_from_dict,
    instance_to_dict,
    load_certificate_file,
    load_instance,
    save_instance,
)
from .lagrange import (
    IntersectionWitness,
    LagrangianContext,
    SupportPointScan,
    convexification_preserves_value,
    intersection_property,
    lagrangian_value,
    ld_value,
    lp_value,
    lsc_probe_at_zero,
    psi_convexity_at_optimum,
    support_point_scan,
    support_point_zero_gap_check,
    value_function,
)
from .objectives import (
    INF,
    Box,
    Objective,
    WeakConvexityReport,
    shifted_modulus,
    weak_convexity_modulus,
)
from .quadratics import (
    CurvatureSpec,
    Family,
    GeneralizedQuadratic,
    LinearMap,
    combine,
    pullback,
)
from .randomgen import RandomSpec, random_instance
from .report import report_json, report_table, run_report

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Jet-level verification toolkit for almost complex geometry.

Represents almost complex structures and hermitian metrics as truncated
power-series data on a chart germ, computes torsion, canonical and hermitian
connections, curvature, normal coordinates and the asymptotic geodesic flow,
and checks every identity numerically against independent oracles.
"""

from .jets import Jet, JetError, JetMatrix, QC, SingularMatrixError, Substitution
from .structure import (AlmostComplexStructure, ChartChange, Frame, VectorField,
                        adapt_linear, bracket_coefficients, frame_and_dual,
                        nijenhuis_check, structure_from_deformation,
                        torsion_tensor, transform_structure)
from .forms import (FrameCalculus, PQForm, apply_operator, canonical_p0_connection,
                    exterior_derivative, exterior_derivative_check,
                    fundamental_identities_check)
from .normal import (NormalCoordinateResult, a_from_b_closed_form,
                     normalize_to_order, pattern_violation,
                     solve_a_degree_by_degree, structure_from_b_family,
                     torsion_jet_equivalence, torsion_jet_normal,
                     verify_holomorphic_invariance)
from .chern import (ChernLeviCivita, ConnectionForms, CurvatureBlocks,
                    HermitianData, LeviCivita, antisymmetrize_metric_linear,
                    canonical_delbar_connection, chern_connection,
                    connection_asymptotics, curvature, curvature_origin_formula,
                    special_frame, symplectic_normalize)
from .geodesic import (GeodesicLab, error_scaling_probe, exp_asymptotic,
                       integrate_geodesic, integrator_convergence_ratio)

__all__ = [
    "Jet", "JetError", "JetMatrix", "QC", "SingularMatrixError", "Substitution",
    "AlmostComplexStructure", "ChartChange", "Frame", "VectorField", "adapt_linear",
    "bracket_coefficients", "frame_and_dual", "nijenhuis_check",
    "structure_from_deformation", "torsion_tensor", "transform_structure",
    "FrameCalculus", "PQForm", "apply_operator",
    "canonical_p0_connection", "exterior_derivative",
    "exterior_derivative_check", "fundamental_identities_check",
    "NormalCoordinateResult", "a_from_b_closed_form", "normalize_to_order",
    "pattern_violation", "solve_a_degree_by_degree", "structure_from_b_family",
    "torsion_jet_equivalence", "torsion_jet_normal",
    "verify_holomorphic_invariance",
    "ChernLeviCivita", "ConnectionForms", "CurvatureBlocks", "HermitianData",
    "LeviCivita", "antisymmetrize_metric_linear", "canonical_delbar_connection",
    "chern_connection", "connection_asymptotics", "curvature",
    "curvature_origin_formula", "special_frame", "symplectic_normalize",
    "GeodesicLab", "error_scaling_probe", "exp_asymptotic",
    "integrate_geodesic", "integrator_convergence_ratio",
]

__version__ = "0.1.0"

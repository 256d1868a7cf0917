"""Discrete conformal structures on ideally triangulated surfaces with
boundary: hexagon metrics, boundary-length curvature, curvature flows,
prescribed-length solving and hexagon-pyramid volumes."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    EtaOutOfRange,
    HexflowError,
    JacobianNotPD,
    LengthMismatch,
    NotAdmissible,
    NotAttained,
    ParseError,
    QuadratureWarning,
    ValidationError,
)
from .triangulation import (
    Edge,
    Face,
    Surface,
    check_structure_condition,
    load_surface,
    pair_of_pants,
    save_surface,
    structure_condition_holds,
)
from .hexagon import (
    CornerAlpha,
    FaceEta,
    HexagonMetric,
    central_difference,
    det_length_alpha_jacobian,
    det_lower_bound,
    diagonal_identity_residuals,
    edge_length_alpha,
    edge_length_u,
    edge_margin,
    face_jacobian_chain,
    face_jacobian_closed,
    face_jacobian_fd,
    face_metric,
    hexagon_angles,
    length_jacobian_fd,
)
from .conformal import (
    AdmissibilityReport,
    ConformalFactor,
    CurvatureVector,
    GlobalJacobian,
    admissibility,
    calabi_energy,
    chain_global_jacobian,
    curvature,
    curvature_from_lengths,
    default_base_point,
    energy,
    factor_margin,
    factor_margins,
    fd_global_jacobian,
    global_jacobian,
    load_factor,
    potential,
    sample_admissible,
    save_factor,
)
from .solve import (
    FlowConfig,
    NewtonConfig,
    RunLog,
    measured_decay_rate,
    run_flow,
    solve_prescribed,
    solve_prescribed_multistart,
    velocity,
)
from .volume import PyramidChart, relative_volume, volume_gradient, volume_grid, volume_hessian

__all__ = [name for name in dir() if not name.startswith("_")]

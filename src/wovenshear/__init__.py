"""Fiber-angle elastoplasticity for woven fabrics in shear.

Surface kinematics of two convected fiber families, a one-dimensional
elastoplastic return map on the fiber-angle cosine, a closed-form
picture-frame solution, a membrane finite-element verifier, and a
calibration fitter for shear-frame force curves.
"""

from .kinematics import (
    InvalidMetricError,
    DegenerateFiberError,
    MetricPoint,
    RefFiberPair,
    FiberState,
    StructuralTensors,
    AngleSplit,
    fiber_state,
    angle_measures,
    structural_tensors,
    angle_split,
    picture_frame_deformation,
    picture_frame_dF_dtheta,
    picture_frame_metric,
    crosshead_displacement,
    crosshead_rate,
    gamma_to_theta,
    theta_to_gamma,
    FRAME_FIBER_1,
    FRAME_FIBER_2,
)
from .material import (
    ConvergenceError,
    ElastoplasticParams,
    HyperelasticParams,
    PlasticState,
    StressReturn,
    BatchReturn,
    DriveResult,
    PARAM_JSON_KEYS,
    f_iso,
    f_iso_prime,
    yield_function,
    return_map,
    return_map_batch,
    drive_angle_path,
    params_from_dict,
    params_to_dict,
    load_params,
    save_params,
    replace_params,
)
from .analytic import (
    LoadProgram,
    IntervalState,
    IntervalSolution,
    ShearCurve,
    CURVE_COLUMNS,
    yield_angle,
    interval_solve,
    interval_solve_batch,
    advance_interval,
    frame_force,
    program_theta_grid,
    run_program,
)
from .fe import (
    ElementInversionError,
    SolverError,
    Mesh,
    FESolution,
    FIELD_COLUMNS,
    element_residual_and_tangent,
    solve_picture_frame,
    verify_against_analytic,
)
from .calibrate import (
    ExperimentCurve,
    FitConfig,
    FitResult,
    model_forces,
    objective,
    fit,
    staged_fit,
    synthetic_curve,
)

__version__ = "0.1.0"

"""Instance-specific projection for convex quadratic programs.

A graph network generates a per-instance orthonormal projection, the reduced
QP is solved exactly, and the solution is lifted back; training minimizes the
lifted objective via envelope-theorem gradients.
"""

from .core import (
    AffineRecovery,
    EqQpInstance,
    ProjectionMatrix,
    QpInstance,
    eliminate_eq_doubling,
    eliminate_eq_nullspace,
    is_feasible,
    load_instance,
    max_violation,
    objective,
    project,
    recover,
    save_instance,
)
from .solver import (
    SolveResult,
    SolveStatus,
    SolverSettings,
    kkt_residuals,
    solve_qp,
)
from .gnn import (
    ForwardTape,
    ModelParams,
    backward,
    forward,
    forward_raw,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    TrainReport,
    envelope_grad,
    train,
    validation_loss,
)
from .baselines import (
    direct_train,
    pca_projection,
    rand_projection,
    sharedp_train,
)
from .datasets import (
    DatasetManifest,
    gen_control,
    gen_portfolio,
    gen_regression,
    gen_split,
)
from .evaluate import (
    EvalRecord,
    SolutionCache,
    evaluate_method,
    relative_error,
    run_experiment,
)
from .theory import (
    AssumptionConstants,
    gen_bound,
    lipschitz_consts,
    validate_norm_bound,
    y_max,
)

__version__ = "0.1.0"

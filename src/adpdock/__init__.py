"""Data-driven value iteration for optimal output regulation.

Learns feedback-feedforward tracking controllers for linear systems
from a single off-policy trajectory, no (A, B, D) required, and ships a
Clohessy-Wiltshire satellite docking scenario with J2 disturbances as
the worked example. Model-based solvers (Kleinman policy iteration,
value iteration, an exact regulator-equation solver) are included both
as standalone tools and as oracles for validating the learned gains.
"""

from .adp import (
    LearnedController,
    ModelRecovery,
    RegressionBundle,
    assemble_regression,
    check_rank,
    collect_data,
    recover_model_artifacts,
    solve_problem1_datadriven,
    vi_learn,
)
from .dockcli import (
    ExperimentConfig,
    ExperimentReport,
    compare_gains,
    default_config,
    load_config,
    run_experiment,
    save_config,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    NoSolutionError,
    RankDeficiencyError,
    StageFailure,
)
from .regulator import (
    KernelBasis,
    RegulatorSolution,
    feedforward_gain,
    kernel_basis,
    solve_regulator_exact,
)
from .riccati import (
    ViHistory,
    are_residual,
    harmonic_steps,
    kleinman_pi,
    linear_balls,
    lyapunov_solve,
    model_based_vi,
)
from .sysmodels import (
    CwParams,
    Exosystem,
    LinearPolicy,
    NoiseSpec,
    StateSpaceModel,
    TrajectoryLog,
    build_cw_plant,
    build_docking_scenario,
    check_assumptions,
    exploration_noise,
    simulate,
    sinusoid_noise,
)

__version__ = "0.1.0"

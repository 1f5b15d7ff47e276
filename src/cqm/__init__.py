"""Critical quantum metrology in a quadratically augmented Rabi model.

Two engines over one parameter set: closed-form expressions for the
critical-oscillator dynamics (QFI, quadrature statistics, inverted variance,
damped-moment solutions) and an exact truncated-Fock-space oracle that
validates them, plus a config-driven experiment runner exposed through the
``cqm`` command.
"""

__version__ = "0.1.0"

from .errors import (
    CqmError,
    ConfigError,
    CutoffNotConverged,
    InvalidParams,
    NonFinite,
    NonPositiveData,
    RegimeError,
    StepTooLarge,
    TruncationLeak,
)
from .model import (
    EffectiveOscillator,
    ModelParams,
    OscillatorFrame,
    Regime,
    critical_coupling,
    effective_oscillator,
    lambda_for_target_critical,
    oscillator_frame,
    squeeze_parameter,
    validate,
)
from .closed_form import (
    BosonInitialState,
    default_initial_state,
    ig_fg_ratio,
    inverted_variance,
    inverted_variance_peak,
    optimal_times,
    qfi_g,
    var_n,
    x_deriv_g,
    x_mean,
    x_second_moment,
    x_variance,
)
from .fock import (
    HermitianOperator,
    JointState,
    auto_cutoff,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_squeezed_frame_hamiltonian,
    evolve_grid,
    finite_frequency_point,
    generator_qfi_grid,
    qfi_overlap,
    quadrature_series,
    verify_reciprocal_relation,
)
from .lindblad import (
    DecayRates,
    MomentVector,
    TimeSeries,
    integrate_moments,
    inverted_variance_dissipative,
    moment_rhs,
    x_deriv_g_dissipative,
    x_mean_dissipative,
    x_variance_dissipative,
)
from .experiments import (
    Dataset,
    ExperimentConfig,
    SlopeFit,
    build_config,
    config_reference,
    experiment_ids,
    fit_loglog_slope,
    run,
)

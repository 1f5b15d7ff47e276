"""Critical quantum metrology in a quadratically augmented Rabi model.

Two engines over one parameter set: closed-form expressions for the
critical-oscillator dynamics (QFI, quadrature statistics, inverted variance,
damped-moment solutions) and an exact truncated-Fock-space oracle that
validates them, plus a config-driven experiment runner exposed through the
``cqm`` command.
"""

__version__ = "0.2.0"

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
    ModelParams,
    OscillatorFrame,
    Regime,
    critical_coupling,
    effective_oscillator,
    lambda_for_target_critical,
    oscillator_frame,
    validate,
)
from .closed_form import (
    PROBE_AMPLITUDES,
    ig_fg_ratio,
    inverted_variance,
    inverted_variance_peak,
    optimal_times,
    peak_time,
    qfi_g,
    var_n,
    x_deriv_g,
    x_mean,
    x_second_moment,
    x_variance,
)
from .fock import (
    HermitianOperator,
    auto_cutoff,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_squeezed_frame_hamiltonian,
    evolve_grid,
    generator_qfi_grid,
    qfi_overlap,
    quadrature_series,
    squeezed_frame_series,
    verify_reciprocal_relation,
)
from .lindblad import (
    DecayRates,
    integrate_moments,
    inverted_variance_dissipative,
    moment_generator,
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

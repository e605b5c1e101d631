"""distbeam: distributed energy beamforming with one-bit feedback.

A deterministic simulator and analysis library for multi-transmitter
wireless energy transfer: multipath channel aggregation, harvested-power
formulas, bisection-based phase adaptation driven by one-bit power
comparisons, the sequential alignment protocol with its closed-form
efficiency bounds, a random-perturbation baseline, and a seeded Monte
Carlo experiment harness.
"""

from ._version import __version__
from .angles import circular_distance, wrap_angle
from .channel import (
    Channel,
    PathSet,
    Scenario,
    ScenarioDistribution,
    ScenarioDraw,
    aggregate_channel,
    generate_scenario,
    path_loss_gain,
    scenario_from_text,
    scenario_to_text,
)
from .power import (
    EXACT,
    MeasurementModel,
    PhaseAssignment,
    SumSignal,
    aligned_phase,
    harvested_power,
    measure,
    optimal_power,
    partial_power,
    sum_signal,
)
from .adapt import (
    Arc,
    ProbePair,
    TraceRecord,
    TrainingTrace,
    adapt_phase,
    bisect_arc,
    feedback_bit,
    initial_arc,
    probe_pair,
)
from .protocol import (
    InfeasibleEfficiencyTarget,
    ProtocolResult,
    accumulated_power,
    check_induction_inequality,
    efficiency_lower_bound,
    error_bound_power,
    phase_errors,
    phases_from_errors,
    required_intervals,
    required_intervals_equal_gains,
    run_protocol,
)
from .baseline import (
    BaselineTrace,
    PerturbationConfig,
    run_random_perturbation,
)
from .experiments import (
    EXPERIMENTS,
    Curve,
    ExperimentConfig,
    ExperimentResult,
    config_from_mapping,
    config_hash,
    parse_config_text,
    protocol_trajectory,
    run_experiment,
)
from .streams import rng_stream

__all__ = [name for name in dir() if not name.startswith("_")]

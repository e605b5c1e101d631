"""distbeam: distributed energy beamforming with one-bit feedback.

A deterministic simulator and analysis library for multi-transmitter
wireless energy transfer: random channels of one (power gain, phase shift)
pair per link, period-average harvested-power formulas, bisection-based
phase adaptation driven by one-bit power comparisons, the sequential
alignment protocol with its closed-form efficiency bounds, a
random-perturbation baseline, and a seeded Monte Carlo experiment harness.
"""

from ._version import __version__
from .angles import circular_distance, wrap_angle
from .channel import (
    Scenario,
    ScenarioDistribution,
    generate_scenario,
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
    TrainingTrace,
    adapt_phase,
    bisect_arc,
    feedback_bit,
    initial_arc,
    probe_pair,
)
from .protocol import (
    ProtocolResult,
    accumulated_power,
    check_induction_inequality,
    efficiency_lower_bound,
    error_bound_power,
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
    run_experiment,
)
from .streams import rng_stream

__all__ = [name for name in dir() if not name.startswith("_")]

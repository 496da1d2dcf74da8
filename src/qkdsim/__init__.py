"""Closed-loop decoy-state BB84 link simulator with finite-size key distillation."""

from .config import (Config, ConfigError, ControlConfig, LinkConfig,
                     SecurityConfig, SimConfig, SourceConfig, load_config)
from .channel import (SIFTING, DriftState, PulseTally, calibrate_misalignment,
                      channel_transmittance, class_rates, drift_penalties,
                      expected_rates, observed, sample_tally)
from .finite_key import (BinomialBound, DecoyBounds, KeyResult, asymptotic_rate,
                         binary_entropy, clopper_pearson, decoy_bounds, distill,
                         efficiency_curve, estimate_channel, expectation_tally,
                         secure_key_length)
from .optimizer import OptimizationResult, objective, optimize_source
from .session import (SecureKeyRecord, SessionResult, SessionSummary,
                      TelemetryRow, distill_window, run_session)
from .stabilization import (ControllerState, apply_controls, gate_delay_feedback,
                            intensity_feedback, polarization_feedback, step_drift,
                            stretcher_feedback)

__version__ = "0.1.0"

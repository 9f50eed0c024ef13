"""Admittance-controlled prosthetic ankle simulation and gait-stability
analysis: signal utilities, lookup-table engine, controllers, a closed-loop
plant with compliant ground, divergence exponents, margins of stability,
and quasi-stiffness profiles."""

from .signals import (TimeSeries, butterworth_lowpass, finite_difference,
                      moving_average, time_normalize)
from .lut import (InvalidLutError, Lut2D, LutDomainError, SyntheticMomentMap,
                  UnreachableTargetError)
from .controllers import (ControllerOutput, ProsthesisState, TibiaPhaseState,
                          admittance_equilibrium,
                          admittance_target, ankle_controller, blend_commands,
                          default_gait_lut, default_moment_lut,
                          moment_feedback, step_controller,
                          tibia_phase_update, tibia_reference_motor)
from .plant import (Perturbation, PlantState, SimulationDivergedError,
                    TrialRecording, TrialSpec, generate_trial,
                    ground_deflection, step_plant)
from .stiffness import (CycleAverage, StiffnessProfile, average_cycle,
                        quasi_stiffness, segment_cycles)
from .analysis import (AnalysisSettings, SchemaMismatchError, analyze_trial,
                       compare_reports)
from .config import ConfigError, RunConfig
from . import io, stability

__version__ = "0.1.0"

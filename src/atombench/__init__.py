"""Noisy density-matrix simulator and benchmark suite for neutral-atom
quantum computers with a ququart (qubit + dark/bright loss) site encoding."""

from .channels import KrausSet, NoiseParams
from .circuit import Circuit, Gate, lower_to_native, schedule_layers
from .bench import BenchmarkSpec, generate, sample_instances
from .metrics import Distribution, classical_fidelity, average_gate_fidelity
from .routing import Topology, route
from .runner import RunConfig, ResultRecord, run_instance, run_suite
from .state import QuquartState
from .fit import FitProblem, fit_noise_params

__version__ = "0.1.0"

__all__ = [
    "KrausSet", "NoiseParams", "Circuit", "Gate", "lower_to_native",
    "schedule_layers", "BenchmarkSpec", "generate", "sample_instances",
    "Distribution", "classical_fidelity", "average_gate_fidelity",
    "Topology", "route", "RunConfig", "ResultRecord", "run_instance",
    "run_suite", "QuquartState", "FitProblem", "fit_noise_params",
    "__version__",
]

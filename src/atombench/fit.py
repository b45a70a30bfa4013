"""Nelder-Mead calibration of noise parameters against measured distributions.

Each numeric ``NoiseParams`` field declares its kind, and the kind sets how
the field is fitted.  Rates and the equilibrium population are optimized
through a logistic map, so the simplex explores an unconstrained space while
the physical values stay in (0, 1).  Durations live on a log scale when
freed; the coherent CZ phase offset is linear.  T1 and T2* and the
non-numeric ``cz_phaseflip_mode`` are never fitted.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field

import numpy as np

from .channels import NoiseParams
from .errors import ValidationError
from .metrics import classical_fidelity
from .runner import run_reference
from .state import DEFAULT_MEMORY_CAP

# parameters in [0, 1], logistic-reparameterized
PROB_PARAMS = NoiseParams.names("rate", "population")
LOG_PARAMS = NoiseParams.names("duration")
# every numeric parameter but T1 and T2*
FITTABLE = NoiseParams.names("rate", "population", "phase", "duration")

# every error rate and the phase offset, not the decoherence equilibrium
DEFAULT_FREE = NoiseParams.names("rate") + NoiseParams.names("phase")


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1 - 1e-12)
    return math.log(p / (1 - p))


def _expit(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def encode_param(name: str, value: float) -> float:
    if name in PROB_PARAMS:
        return _logit(value)
    if name in LOG_PARAMS:
        return math.log(max(value, 1e-300))
    return value


def decode_param(name: str, x: float) -> float:
    if name in PROB_PARAMS:
        return _expit(x)
    if name in LOG_PARAMS:
        return math.exp(x)
    return x


# -- Nelder-Mead -------------------------------------------------------------

_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5


def nelder_mead(objective, x0, xtol: float = 1e-6, ftol: float = 1e-9,
                max_evals: int = 2000, initial_scale: float = 0.1
                ) -> tuple[np.ndarray, float, int, str]:
    """Downhill-simplex minimization; returns (x, f, evals, status).

    status is "converged" (simplex diameter < xtol and function spread
    < ftol, both required) or "max-evals".  Non-finite objective values are
    treated as +inf, except at x0 where they raise.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n < 1:
        raise ValidationError("nelder_mead needs at least one dimension")
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        v = objective(x)
        return float(v) if np.isfinite(v) else float("inf")

    f0 = objective(x0)
    evals += 1
    if not np.isfinite(f0):
        raise ValidationError(f"objective is not finite at x0 ({f0})")

    simplex = [x0]
    for i in range(n):
        step = initial_scale * (abs(x0[i]) if x0[i] != 0.0 else 1.0)
        v = x0.copy()
        v[i] += step
        simplex.append(v)
    values = [float(f0)] + [f(v) for v in simplex[1:]]

    status = "max-evals"
    while evals < max_evals:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
        spread = values[-1] - values[0]
        if diameter < xtol and spread < ftol:
            status = "converged"
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + _ALPHA * (centroid - worst)
        fr = f(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        elif fr < values[0]:
            expanded = centroid + _GAMMA * (reflected - centroid)
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + _RHO * (worst - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + _SIGMA * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
    best = int(np.argmin(values))
    return simplex[best], values[best], evals, status


# -- noise-parameter fitting --------------------------------------------------


@dataclass
class FitProblem:
    references: list                       # (Circuit, Distribution) pairs
    free_params: tuple = DEFAULT_FREE
    base_params: NoiseParams = field(default_factory=NoiseParams)
    initial_simplex_scale: float = 0.3
    xtol: float = 1e-4
    ftol: float = 1e-8
    max_evals: int = 1500
    n_starts: int = 5
    seed: int = 0
    memory_cap: int = DEFAULT_MEMORY_CAP

    def __post_init__(self):
        if not self.references:
            raise ValidationError("at least one reference circuit is required")
        for f in self.__dataclass_fields__.values():
            value, want = getattr(self, f.name), type(f.default)
            if f.default is not MISSING and type(value) not in (
                    want, int if want is float else want):
                raise ValidationError(
                    f"{f.name} must be a {want.__name__}, got {value!r}")
        bad = [p for p in self.free_params if p not in FITTABLE]
        if bad:
            raise ValidationError(f"parameters {bad} cannot be fitted")
        if len(set(self.free_params)) != len(self.free_params):
            raise ValidationError(
                f"free_params lists a parameter twice: {self.free_params}")
        if self.n_starts < 1:
            raise ValidationError(f"n_starts must be >= 1, got {self.n_starts}")


def _params_from_vector(problem: FitProblem, x: np.ndarray) -> NoiseParams:
    updates = {
        name: decode_param(name, float(val))
        for name, val in zip(problem.free_params, x)
    }
    return problem.base_params.replace(**updates)


def mean_reference_fidelity(references: list, params: NoiseParams,
                            memory_cap: int = DEFAULT_MEMORY_CAP) -> float:
    total = 0.0
    for circuit, measured in references:
        out = run_reference(circuit, params, memory_cap)
        _, _, fid = classical_fidelity(measured, out)
        total += fid
    return total / len(references)


def fit_noise_params(problem: FitProblem) -> tuple[NoiseParams, float, dict]:
    """Maximize mean classical fidelity over the references.

    Returns (best params, achieved mean fidelity, report).  The report
    carries per-start results for reproducibility audits.
    """
    if not problem.free_params:
        fid = mean_reference_fidelity(problem.references, problem.base_params,
                                      problem.memory_cap)
        return problem.base_params, fid, {"starts": [], "evals": 0}

    def objective(x):
        try:
            p = _params_from_vector(problem, x)
        except ValidationError:
            return float("inf")
        return -mean_reference_fidelity(problem.references, p,
                                        problem.memory_cap)

    x_base = np.array([
        encode_param(name, getattr(problem.base_params, name))
        for name in problem.free_params
    ])
    rng = np.random.default_rng(problem.seed)
    starts = [x_base]
    for _ in range(problem.n_starts - 1):
        starts.append(x_base + rng.normal(scale=problem.initial_simplex_scale,
                                          size=x_base.size))

    report = {"starts": [], "evals": 0}
    best_x, best_f = None, float("inf")
    for x0 in starts:
        x, fval, evals, status = nelder_mead(
            objective, x0, xtol=problem.xtol, ftol=problem.ftol,
            max_evals=problem.max_evals,
            initial_scale=problem.initial_simplex_scale)
        report["evals"] += evals
        report["starts"].append({
            "fidelity": -fval, "evals": evals, "status": status,
        })
        if fval < best_f:
            best_x, best_f = x, fval
    best = _params_from_vector(problem, best_x)
    return best, -best_f, report

"""Quasi-Newton calibration of noise parameters against measured distributions.

``fit_noise_params`` maximizes the mean classical fidelity of the references
by multi-start BFGS on forward-difference gradients.  Each numeric
``NoiseParams`` field declares its kind, and the kind sets how the field is
fitted.  Rates and the equilibrium population are optimized through a
logistic map, so the search explores an unconstrained space while the
physical values stay in (0, 1).  Durations live on a log scale when
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


# -- quasi-Newton -------------------------------------------------------------

_ARMIJO = 1e-4


def quasi_newton(objective, x0, xtol: float = 1e-6, ftol: float = 1e-9,
                 max_evals: int = 2000) -> tuple[np.ndarray, float, int, str]:
    """BFGS minimization on forward-difference gradients with Armijo
    backtracking; returns (x, f, evals, status).

    status is "converged" when an accepted step is below xtol in every
    coordinate and lowers f by less than ftol, or when backtracking finds no
    sufficient decrease with such a step; otherwise "max-evals".  At most
    max_evals objective calls are made.  Non-finite objective values are
    treated as +inf, except at x0 where they raise.
    """
    if max_evals < 1:
        raise ValidationError(f"max_evals must be >= 1, got {max_evals}")
    x = np.asarray(x0, dtype=float)
    n, evals = x.size, 0

    def f(x):
        nonlocal evals
        evals += 1
        v = float(objective(x))
        return v if math.isfinite(v) else math.inf

    def gradient(x, fx):
        # an axis whose forward point is non-finite contributes no slope
        steps = np.diag(1e-6 * np.maximum(1.0, np.abs(x)))
        fe = np.array([f(x + e) for e in steps])
        return np.where(fe < math.inf, fe - fx, 0.0) / steps.diagonal()

    fx = f(x)
    if fx == math.inf:
        raise ValidationError("objective is not finite at x0")
    H = g = None                       # an H of None is the identity
    while evals + n < max_evals:       # room for a gradient and one step
        g_old, g = g, gradient(x, fx)
        if g_old is not None and s @ (g - g_old) > 0:
            y = g - g_old
            sy = s @ y
            if H is None:              # Nocedal & Wright eq. 6.20
                H = (sy / (y @ y)) * np.eye(n)
            v = np.eye(n) - np.outer(s, y) / sy
            H = v @ H @ v.T + np.outer(s, s) / sy
        d = -g if H is None else -H @ g
        if not g @ d < 0:
            H, d = None, -g
        s = d
        while (f_new := f(x + s)) > fx + _ARMIJO * (g @ s):
            if np.all(np.abs(s) < xtol):
                return x, fx, evals, "converged"
            if evals == max_evals:
                return x, fx, evals, "max-evals"
            s = s / 2
        x, fx, decrease = x + s, f_new, fx - f_new
        if np.all(np.abs(s) < xtol) and decrease < ftol:
            return x, fx, evals, "converged"
    return x, fx, evals, "max-evals"


# -- noise-parameter fitting --------------------------------------------------


@dataclass
class FitProblem:
    references: list                       # (Circuit, Distribution) pairs
    free_params: tuple = DEFAULT_FREE
    base_params: NoiseParams = field(default_factory=NoiseParams)
    # standard deviation of the extra starts around the base point; the name
    # is kept from the simplex search so that existing configs still load
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
        for name, ok in (("n_starts", self.n_starts >= 1),
                         ("max_evals", self.max_evals >= 1),
                         ("xtol", 0 < self.xtol < math.inf),
                         ("ftol", 0 < self.ftol < math.inf),
                         ("initial_simplex_scale",
                          0 <= self.initial_simplex_scale < math.inf)):
            if not ok:
                raise ValidationError(
                    f"{name} is out of range: {getattr(self, name)!r}")


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
        x, fval, evals, status = quasi_newton(
            objective, x0, xtol=problem.xtol, ftol=problem.ftol,
            max_evals=problem.max_evals)
        report["evals"] += evals
        report["starts"].append({
            "fidelity": -fval, "evals": evals, "status": status,
        })
        if fval < best_f:
            best_x, best_f = x, fval
    best = _params_from_vector(problem, best_x)
    return best, -best_f, report

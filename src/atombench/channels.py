"""Kraus channel constructors for the neutral-atom noise model.

Every channel acts on the 4-level site basis |0>, |1>, |l0>, |l1>, where the
two loss states are inert under gates and are populated only by the loss
channels.  Pauli operators are generalized to act as identity on the loss
subspace, so all channels map the sparse block pattern of the density matrix
to itself.

These Kraus forms define the channels; the simulator does not apply them one
by one.  ``gatemodel`` converts each constructor at a few fixed rates into
constant ops (``state.kraus_matrix``, checked there once) and builds a
channel's op at any rate as a fixed combination of them: (1 - p) I + p S
for a mixture, C0 + p C1 + sqrt(1 - p) C2 for a level transfer.  Idle
T1/T2* decoherence is built from its direct action, with the decay factors
and regime check of :func:`idle_decay`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field, asdict, fields

import numpy as np

from .errors import ValidationError, ParameterRegimeError

SITE_DIM = 4

# Generalized Pauli operators: identity on the loss subspace.
PAULI_X = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
PAULI_Y = np.array([[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
PAULI_Z = np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex)

CPTP_ATOL = 1e-10


def _param(kind: str, default: float):
    """A numeric NoiseParams field and its kind, from which validation,
    :meth:`NoiseParams.noiseless` and fitting derive their rules: "rate"
    and "population" lie in [0, 1], "phase" is in radians, "duration" is a
    gate time (> 0, seconds) and "time" is T1 or T2* (seconds)."""
    return field(default=default, metadata={"kind": kind})


@dataclass(frozen=True)
class NoiseParams:
    """Full noise-parameter record (channel rates, SPAM, decoherence, timing).

    Rates tagged per-pi-pulse scale linearly with the rotation angle via
    :func:`scaled_probability`.  Durations are not measured quantities; they
    are calibrated so that simulated average gate fidelities reproduce the
    reference values (see ``scripts/calibrate_durations.py``).
    """

    uw_depol_per_pi: float = _param("rate", 1.8e-6)

    rz_phaseflip_per_pi: float = _param("rate", 3.2e-4)
    rz_loss_dark_per_pi: float = _param("rate", 1.9e-4)
    rz_loss_bright_per_pi: float = _param("rate", 2.7e-4)
    rz_decay_per_pi: float = _param("rate", 2.0e-8)

    cz_phaseflip: float = _param("rate", 3.3e-2)
    cz_loss_dark: float = _param("rate", 1.8e-2)
    cz_loss_bright: float = _param("rate", 2.9e-2)
    cz_decay: float = _param("rate", 2.1e-5)
    cz_phaseshift: float = _param("phase", -2.0e-3)  # coherent CZ phase offset

    prep_error: float = _param("rate", 5.2e-3)
    meas_error: float = _param("rate", 5.3e-3)

    t1: float = _param("time", 10.0)
    t2_star: float = _param("time", 3.5e-3)
    p0_equilibrium: float = _param("population", 0.42)

    # Calibrated gate durations; see the class docstring.
    dur_uw_pi: float = _param("duration", 5.243e-6)
    dur_rz_pi: float = _param("duration", 4.772e-5)
    dur_cz: float = _param("duration", 5.0e-7)

    # "correlated": one ZZ phase-flip per CZ; "per_site": independent Z flip
    # on each participating site.
    cz_phaseflip_mode: str = "conditional"

    def __post_init__(self):
        self.validate()

    @staticmethod
    @functools.cache
    def names(*kinds: str) -> tuple:
        """Names of the fields of the given kinds, in declaration order."""
        return tuple(f.name for f in fields(NoiseParams)
                     if f.metadata.get("kind") in kinds)

    def validate(self):
        for name in self.names("rate", "population", "phase", "duration",
                               "time"):
            v = getattr(self, name)
            # a float is the common case, and the ABC check costs ten times more
            if type(v) is not float and (isinstance(v, bool) or
                                         not isinstance(v, numbers.Real)):
                raise ValidationError(f"{name}={v!r} is not a real number")
        for name in self.names("rate", "population"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name}={v} outside [0, 1]")
        for name in self.names("duration"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValidationError(f"{name} must be finite and > 0")
        if not math.isfinite(self.cz_phaseshift):
            raise ValidationError(f"cz_phaseshift={self.cz_phaseshift} is not finite")
        if not self.t1 >= self.t2_star > 0:
            raise ValidationError(
                f"need t1 >= t2_star > 0, got t1={self.t1}, t2_star={self.t2_star}"
            )
        if self.cz_phaseflip_mode not in ("conditional", "correlated", "per_site"):
            raise ValidationError(
                f"unknown cz_phaseflip_mode {self.cz_phaseflip_mode!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def _check_names(cls, names):
        unknown = set(names) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown noise parameter(s): {sorted(unknown)}")

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseParams":
        cls._check_names(d)
        return cls(**d)

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, spec) -> "NoiseParams":
        """Parameters from a config value: a dict of fields, the keyword
        "noiseless", or the path of a JSON file holding such a dict."""
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        if spec == "noiseless":
            return cls.noiseless()
        if not isinstance(spec, (str, os.PathLike)):
            raise ValidationError(f"noise must be a dict, \"noiseless\" or "
                                  f"a path, got {spec!r}")
        try:
            with open(spec) as fh:
                d = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"cannot read noise parameters from {spec!r}: {exc}") from exc
        if not isinstance(d, dict):
            raise ValidationError(f"{spec!r} does not hold a JSON object")
        return cls.from_dict(d)

    def replace(self, **kw) -> "NoiseParams":
        """A copy with the named fields changed, validated as a new record."""
        self._check_names(kw)
        return dataclasses.replace(self, **kw)

    @classmethod
    def noiseless(cls) -> "NoiseParams":
        """Zero error rates and phase offset, negligible durations and
        decoherence; for identity checks."""
        return cls(t1=1e30, t2_star=1e29,
                   **dict.fromkeys(cls.names("rate", "phase"), 0.0),
                   **dict.fromkeys(cls.names("duration"), 1e-30))


@dataclass(frozen=True)
class KrausSet:
    """A CPTP channel as a tuple of square complex operators (dim 4 or 16)."""

    operators: tuple
    label: str = ""

    def __post_init__(self):
        ops = tuple(np.asarray(a, dtype=complex) for a in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValidationError(f"{self.label}: empty Kraus set")
        dim = ops[0].shape[0]
        for a in ops:
            if a.shape != (dim, dim):
                raise ValidationError(f"{self.label}: non-square or mixed-dim operators")
        s = sum(a.conj().T @ a for a in ops)
        err = np.max(np.abs(s - np.eye(dim)))
        if not err <= CPTP_ATOL:  # also rejects NaN
            raise ValidationError(f"{self.label}: not CPTP (|sum A^dag A - I| = {err:.2e})")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def n_sites(self) -> int:
        return 1 if self.dim == SITE_DIM else 2


def _check_prob(p: float, name: str = "p"):
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name}={p} outside [0, 1]")


def scaled_probability(rate_per_pi: float, theta: float) -> float:
    """Error probability of an angle-theta pulse given a per-pi-pulse rate."""
    _check_prob(rate_per_pi, "rate_per_pi")
    return min(rate_per_pi * abs(theta) / math.pi, 1.0)


def _mixture(p: float, label: str, *unitaries) -> KrausSet:
    """rho -> (1-p) rho + p/k sum_i U_i rho U_i^dag over k unitaries."""
    _check_prob(p)
    k = len(unitaries)
    eye = np.eye(len(unitaries[0]), dtype=complex)
    return KrausSet((math.sqrt(1 - p) * eye,
                     *(math.sqrt(p / k) * u for u in unitaries)), label=label)


def _transfer(p: float, level: int, label: str) -> KrausSet:
    """Transfer of |1> population into `level` with probability p."""
    _check_prob(p)
    a0 = np.diag([1.0, math.sqrt(1 - p), 1.0, 1.0]).astype(complex)
    a1 = np.zeros((4, 4), dtype=complex)
    a1[level, 1] = math.sqrt(p)
    return KrausSet((a0, a1), label=label)


def controlled_phase_matrix(f: complex) -> np.ndarray:
    """16x16 diag(1, 1, 1, f) on the computational block of a site pair;
    f = -1 is the controlled-Z."""
    u = np.eye(16, dtype=complex)
    u[5, 5] = f  # |11><11| in the 4x4-per-site ordering
    return u


def depolarization(p: float) -> KrausSet:
    """rho -> (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z)."""
    return _mixture(p, "depolarization", PAULI_X, PAULI_Y, PAULI_Z)


def phase_flip(p: float) -> KrausSet:
    """rho -> (1-p) rho + p Z rho Z."""
    return _mixture(p, "phase_flip", PAULI_Z)


def bit_flip(p: float) -> KrausSet:
    """rho -> (1-p) rho + p X rho X.  Models state-preparation error."""
    return _mixture(p, "bit_flip", PAULI_X)


def loss_channel(p: float, target: str) -> KrausSet:
    """Transfer of |1> population into a loss state with probability p.

    target is "dark" (|l0>, reads as 0) or "bright" (|l1>, reads as 1).
    """
    if target not in ("dark", "bright"):
        raise ValidationError(f"loss target must be 'dark' or 'bright', got {target!r}")
    return _transfer(p, 2 if target == "dark" else 3, f"loss_{target}")


def decay(p: float) -> KrausSet:
    """Amplitude damping |1> -> |0> with probability p."""
    return _transfer(p, 0, "decay")


def correlated_phase_flip(p: float) -> KrausSet:
    """Two-site channel rho -> (1-p) rho + p (ZZ) rho (ZZ)."""
    return _mixture(p, "correlated_phase_flip", np.kron(PAULI_Z, PAULI_Z))


def conditional_phase_flip(p: float) -> KrausSet:
    """Two-site flip of the entangling phase: with probability p an extra
    controlled-Z (sign flip of the |11> amplitude) is applied."""
    return _mixture(p, "conditional_phase_flip", controlled_phase_matrix(-1.0))


def idle_decay(t: float, params: NoiseParams) -> tuple[float, float]:
    """(d1, d2) = (exp(-t/T1), exp(-t/T2*)) of idle decoherence over a
    time t: a fraction d1 of the populations stays and the rest refills at
    equilibrium, and the coherence is scaled by d2.

    Written as the population decay, which keeps a coherence sqrt(g0 g1)
    (g_k the fraction of |k> that stays), then a phase flip, the map is
    CPTP only if the flip's probability lies in [0, 1/2]; otherwise
    ParameterRegimeError is raised.
    """
    if t < 0:
        raise ValidationError(f"decoherence time must be >= 0, got {t}")
    p0 = params.p0_equilibrium
    d1 = math.exp(-t / params.t1)
    d2 = math.exp(-t / params.t2_star)
    g0 = p0 * (1 - d1) + d1
    g1 = (1.0 - p0) * (1 - d1) + d1
    phi = 0.5 - d2 / (2.0 * math.sqrt(g0 * g1))
    if phi < -1e-12 or phi > 0.5 + 1e-12:
        raise ParameterRegimeError(
            f"dephasing probability {phi} outside [0, 1/2]; "
            f"check t1/t2_star consistency (t={t})"
        )
    return d1, d2

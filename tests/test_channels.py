"""Channel constructors: CPTP property, parameter validation, scaling."""

import math
from dataclasses import fields

import numpy as np
import pytest

import dense_ref
from atombench import channels as ch
from atombench.channels import KrausSet, NoiseParams
from atombench.errors import ValidationError

TABLE_RATES = NoiseParams()


def cptp_defect(kraus: KrausSet) -> float:
    s = sum(a.conj().T @ a for a in kraus.operators)
    return float(np.max(np.abs(s - np.eye(kraus.dim))))


def all_channels(p: float, params: NoiseParams):
    yield ch.depolarization(p)
    yield ch.phase_flip(p)
    yield ch.bit_flip(p)
    yield ch.loss_channel(p, "dark")
    yield ch.loss_channel(p, "bright")
    yield ch.decay(p)
    yield ch.correlated_phase_flip(p)
    yield ch.conditional_phase_flip(p)
    pop, deph = ch.decoherence(p * 1e-3, params)  # p reused as a time knob
    yield pop
    yield deph


def test_cptp_at_table_rates():
    p = TABLE_RATES
    rates = [p.uw_depol_per_pi, p.rz_phaseflip_per_pi, p.rz_loss_dark_per_pi,
             p.rz_loss_bright_per_pi, p.rz_decay_per_pi, p.cz_phaseflip,
             p.cz_loss_dark, p.cz_loss_bright, p.cz_decay, p.prep_error,
             p.meas_error]
    for r in rates:
        for kraus in all_channels(r, p):
            assert cptp_defect(kraus) < 1e-10, kraus.label


def test_cptp_parameter_sweep():
    for r in np.linspace(0.0, 1.0, 20):
        for kraus in all_channels(float(r), TABLE_RATES):
            assert cptp_defect(kraus) < 1e-10, (kraus.label, r)


def test_kraus_set_rejects_non_cptp():
    with pytest.raises(ValidationError):
        KrausSet((np.eye(4) * 0.5,), label="broken")
    # sum A^dag A = (1 + 5e-6) I is off by far more than CPTP_ATOL
    with pytest.raises(ValidationError, match="not CPTP"):
        KrausSet((np.eye(4) * math.sqrt(1 + 5e-6),), label="scaled")
    with pytest.raises(ValidationError, match="not CPTP"):
        KrausSet((np.full((4, 4), np.nan),), label="nan")


def test_probability_validation():
    for ctor in (ch.depolarization, ch.phase_flip, ch.bit_flip, ch.decay,
                 ch.correlated_phase_flip, ch.conditional_phase_flip):
        with pytest.raises(ValidationError):
            ctor(-0.1)
        with pytest.raises(ValidationError):
            ctor(1.1)
    with pytest.raises(ValidationError):
        ch.loss_channel(0.1, "sideways")


def test_scaled_probability_linear_and_clamped():
    assert ch.scaled_probability(0.01, math.pi) == pytest.approx(0.01)
    assert ch.scaled_probability(0.01, math.pi / 2) == pytest.approx(0.005)
    assert ch.scaled_probability(0.01, -math.pi) == pytest.approx(0.01)
    assert ch.scaled_probability(0.9, 4 * math.pi) == 1.0


def test_noise_params_validation():
    with pytest.raises(ValidationError):
        NoiseParams(cz_phaseflip=1.5)
    with pytest.raises(ValidationError):
        NoiseParams(t1=1e-6, t2_star=1.0)  # t2* may not exceed t1
    with pytest.raises(ValidationError):
        NoiseParams(dur_cz=0.0)
    with pytest.raises(ValidationError):
        NoiseParams(p0_equilibrium=1.5)
    with pytest.raises(ValidationError):
        NoiseParams(cz_phaseflip_mode="sometimes")


@pytest.mark.parametrize("bad", [
    {"cz_phaseflip": "abc"}, {"t1": "10"}, {"cz_phaseflip": None},
    {"dur_cz": [1]}, {"cz_phaseflip": True}, {"cz_phaseshift": False},
    {"dur_cz": math.inf}, {"dur_cz": math.nan}, {"t2_star": "1e-3"},
    {"cz_phaseshift": math.nan}, {"cz_phaseshift": -math.inf},
])
def test_noise_params_reject_a_value_that_is_no_real_number(bad):
    # each raised a bare TypeError, ran as a rate of 1.0 or 0.0, or let an
    # infinite or NaN duration or phase through
    with pytest.raises(ValidationError, match=next(iter(bad))):
        NoiseParams(**bad)
    with pytest.raises(ValidationError, match=next(iter(bad))):
        NoiseParams().replace(**bad)


def test_noise_params_accept_numpy_and_int_values():
    p = NoiseParams(t1=np.int64(10), dur_cz=np.float32(5e-7), cz_phaseflip=0)
    assert (p.t1, p.cz_phaseflip) == (10, 0)


def test_every_numeric_noise_param_has_a_kind():
    kinds = ("rate", "population", "phase", "duration", "time")
    for f in fields(NoiseParams):
        if f.type in ("float", float):
            assert f.metadata.get("kind") in kinds, f.name
        else:
            assert "kind" not in f.metadata, f.name
    assert NoiseParams.names("population", "phase", "time") == (
        "cz_phaseshift", "t1", "t2_star", "p0_equilibrium")
    assert len(NoiseParams.names(*kinds)) == len(fields(NoiseParams)) - 1


def test_noise_params_round_trip_and_unknown_key():
    p = NoiseParams(cz_phaseflip=0.01)
    q = NoiseParams.from_dict(p.to_dict())
    assert q == p
    with pytest.raises(ValidationError):
        NoiseParams.from_dict({"cz_phaseflop": 0.01})


def _replaced_through_a_dict(params: NoiseParams, **kw) -> NoiseParams:
    """A copy with fields changed, made as ``NoiseParams.replace`` once made
    it: every field into a dict, then a new record from the dict."""
    d = params.to_dict()
    d.update(kw)
    return NoiseParams.from_dict(d)


def test_noise_params_replace_checks_names_and_values():
    p = NoiseParams()
    # an unknown name is a ValidationError, not the TypeError of __init__
    with pytest.raises(ValidationError, match="cz_phaseflop"):
        p.replace(cz_phaseflop=0.01)
    with pytest.raises(ValidationError, match="cz_phaseflop"):
        p.replace(cz_phaseflip=0.01, cz_phaseflop=0.01)
    for bad in ({"cz_phaseflip": 1.5}, {"p0_equilibrium": -0.1},
                {"dur_cz": 0.0}, {"t2_star": 2 * p.t1},
                {"cz_phaseflip_mode": "sometimes"}):
        with pytest.raises(ValidationError):
            p.replace(**bad)


def test_noise_params_replace_equals_the_dict_round_trip():
    p = NoiseParams()
    for f in fields(NoiseParams):
        value = ("per_site" if f.name == "cz_phaseflip_mode"
                 else 0.5 * getattr(p, f.name))
        q = p.replace(**{f.name: value})
        assert q == _replaced_through_a_dict(p, **{f.name: value}), f.name
        assert getattr(q, f.name) == value and q != p, f.name
    kw = {"cz_phaseflip": 0.045, "cz_loss_dark": 0.012, "t1": 5.0}
    assert p.replace(**kw) == _replaced_through_a_dict(p, **kw)
    assert p.replace() == p


def test_conditional_phase_flip_action():
    # With probability p the entangling phase of |11> is flipped.
    kraus = ch.conditional_phase_flip(0.25)
    rho = np.full((16, 16), 1 / 16.0, dtype=complex)
    out = sum(a @ rho @ a.conj().T for a in kraus.operators)
    assert out[0, 0] == pytest.approx(1 / 16)
    assert out[0, 5] == pytest.approx((1 - 2 * 0.25) / 16)
    assert out[5, 5] == pytest.approx(1 / 16)


def test_loss_channel_moves_only_bright_or_dark():
    rho = np.diag([0.3, 0.7, 0.0, 0.0]).astype(complex)
    for target, idx in (("dark", 2), ("bright", 3)):
        kraus = ch.loss_channel(0.1, target)
        out = sum(a @ rho @ a.conj().T for a in kraus.operators)
        assert out[0, 0] == pytest.approx(0.3)     # |0> untouched
        assert out[1, 1] == pytest.approx(0.63)    # |1> keeps 90%
        assert out[idx, idx] == pytest.approx(0.07)


def test_decoherence_matches_direct_action():
    rng = np.random.default_rng(11)
    p = NoiseParams()
    for _ in range(100):
        t = float(rng.uniform(0, 5e-3))
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        rho = np.zeros((4, 4), dtype=complex)
        rho[:2, :2] = np.outer(psi, psi.conj())
        pop, deph = ch.decoherence(t, p)
        out = sum(a @ rho @ a.conj().T for a in pop.operators)
        out = sum(a @ out @ a.conj().T for a in deph.operators)
        direct = dense_ref.decoherence_direct_action(rho, t, p)
        assert np.max(np.abs(out - direct)) < 1e-12


def test_decoherence_equilibrium():
    p = NoiseParams()
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    out = dense_ref.decoherence_direct_action(rho, 1e6 * p.t1, p)
    assert np.allclose(np.diag(out)[:2], [0.42, 0.58], atol=1e-12)


def test_decoherence_rejects_negative_time():
    with pytest.raises(ValidationError):
        ch.decoherence(-1.0, NoiseParams())

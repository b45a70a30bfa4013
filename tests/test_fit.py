"""Quasi-Newton optimizer and noise-parameter fitting plumbing."""

import math

import numpy as np
import pytest

from atombench import fit, gatemodel, runner
from atombench.bench import BenchmarkSpec, generate, sample_instances
from atombench.channels import NoiseParams
from atombench.errors import ValidationError
from atombench.fit import (
    DEFAULT_FREE,
    FitProblem,
    decode_param,
    encode_param,
    fit_noise_params,
    mean_reference_fidelity,
    quasi_newton,
)
from atombench.metrics import Distribution
from atombench.runner import run_reference


def test_quasi_newton_quadratic():
    f = lambda x: float((x[0] - 1.5) ** 2 + 3 * (x[1] + 0.5) ** 2)
    x, fval, evals, status = quasi_newton(f, np.zeros(2), xtol=1e-8,
                                          ftol=1e-14, max_evals=2000)
    assert status == "converged"
    assert np.allclose(x, [1.5, -0.5], atol=1e-5)
    assert fval < 1e-10


def test_quasi_newton_rosenbrock():
    f = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
    x, fval, evals, status = quasi_newton(f, np.array([-1.2, 1.0]),
                                          xtol=1e-10, ftol=1e-16,
                                          max_evals=5000)
    assert np.allclose(x, [1.0, 1.0], atol=1e-3)


def test_quasi_newton_max_evals():
    f = lambda x: float(np.sum(x**2))
    _, _, evals, status = quasi_newton(f, np.ones(3), xtol=1e-300,
                                       ftol=1e-300, max_evals=50)
    assert status == "max-evals"
    assert evals <= 50


def test_quasi_newton_never_exceeds_max_evals():
    f = lambda x: float(np.sum((x - np.arange(4)) ** 2 * np.arange(1, 5))
                        + np.prod(np.cos(x)))
    for budget in range(1, 61):
        _, _, evals, status = quasi_newton(f, np.zeros(4), xtol=1e-12,
                                           ftol=1e-16, max_evals=budget)
        assert evals <= budget, (budget, evals)
        assert status == "max-evals", budget


def test_quasi_newton_rejects_non_finite_start():
    with pytest.raises(ValidationError):
        quasi_newton(lambda x: float("nan"), np.zeros(2))


def test_quasi_newton_handles_non_finite_regions():
    def f(x):
        if x[0] > 2.0:
            return float("inf")
        return float((x[0] - 1.0) ** 2)
    x, _, _, _ = quasi_newton(f, np.array([0.0]), xtol=1e-8, ftol=1e-14,
                              max_evals=2000)
    assert abs(x[0] - 1.0) < 1e-4


def test_param_encoding_round_trip():
    for name, value in (("cz_phaseflip", 0.033), ("prep_error", 5.2e-3),
                        ("cz_phaseshift", -2e-3), ("dur_rz_pi", 4.772e-5),
                        ("p0_equilibrium", 0.42)):
        assert decode_param(name, encode_param(name, value)) == pytest.approx(
            value, rel=1e-12)
    # probabilities stay valid wherever the optimizer wanders
    assert 0.0 < decode_param("cz_phaseflip", 20.0) < 1.0
    assert 0.0 < decode_param("cz_phaseflip", -20.0) < 1.0
    assert 0.0 <= decode_param("cz_phaseflip", 500.0) <= 1.0
    assert 0.0 <= decode_param("p0_equilibrium", 20.0) <= 1.0
    # every probability but p0_equilibrium is free by default
    assert set(DEFAULT_FREE) == set(NoiseParams.names("rate", "population")) - {
        "p0_equilibrium"} | {"cz_phaseshift"}
    # durations stay positive
    assert decode_param("dur_cz", -100.0) > 0.0


def test_fit_problem_validation():
    refs = [("placeholder", "placeholder")]
    with pytest.raises(ValidationError):
        FitProblem(references=[])
    with pytest.raises(ValidationError):
        FitProblem(references=refs, free_params=("t1",))
    with pytest.raises(ValidationError):
        FitProblem(references=refs, free_params=("cz_phaseflop",))
    with pytest.raises(ValidationError, match="cz_phaseflip_mode"):
        FitProblem(references=refs, free_params=("cz_phaseflip_mode",))
    with pytest.raises(ValidationError, match="max_evals"):
        FitProblem(references=refs, max_evals="5")
    with pytest.raises(ValidationError, match="xtol"):
        FitProblem(references=refs, xtol=None)
    with pytest.raises(ValidationError, match="free_params"):
        FitProblem(references=refs, free_params="cz_decay")
    with pytest.raises(ValidationError, match="t2_star"):
        FitProblem(references=refs, free_params=("cz_decay", "t2_star"))
    # a repeated name gave the simplex a coordinate the decode dropped, and
    # n_starts=0 still ran one start
    with pytest.raises(ValidationError, match="free_params"):
        FitProblem(references=refs,
                   free_params=("cz_phaseflip", "cz_phaseflip"))
    for n in (0, -1):
        with pytest.raises(ValidationError, match="n_starts"):
            FitProblem(references=refs, n_starts=n)
        with pytest.raises(ValidationError, match="max_evals"):
            FitProblem(references=refs, max_evals=n)
    for name in ("xtol", "ftol"):
        for bad in (0.0, -1e-4, math.nan, math.inf):
            with pytest.raises(ValidationError, match=name):
                FitProblem(references=refs, **{name: bad})
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError, match="initial_simplex_scale"):
            FitProblem(references=refs, initial_simplex_scale=bad)
    # one start needs no spread
    FitProblem(references=refs, initial_simplex_scale=0.0, max_evals=1)
    FitProblem(references=refs, free_params=("p0_equilibrium", "dur_cz",
                                             "cz_phaseshift"))


def test_fit_scales_and_default_free_params():
    assert fit.PROB_PARAMS == (
        "uw_depol_per_pi", "rz_phaseflip_per_pi", "rz_loss_dark_per_pi",
        "rz_loss_bright_per_pi", "rz_decay_per_pi", "cz_phaseflip",
        "cz_loss_dark", "cz_loss_bright", "cz_decay", "prep_error",
        "meas_error", "p0_equilibrium")
    assert fit.LOG_PARAMS == ("dur_uw_pi", "dur_rz_pi", "dur_cz")
    # the simplex's axes: every rate in declaration order, then the phase
    assert DEFAULT_FREE == fit.PROB_PARAMS[:-1] + ("cz_phaseshift",)


def test_fit_no_free_params_returns_base():
    from atombench import bench
    from atombench.bench import BenchmarkSpec
    circuit, ideal = bench.generate(BenchmarkSpec("Ghz", 2))
    problem = FitProblem(references=[(circuit, ideal)], free_params=())
    params, fid, report = fit_noise_params(problem)
    assert params == problem.base_params
    assert 0.0 < fid < 1.0
    assert report["evals"] == 0


def test_fit_with_free_cz_rates_builds_only_cz_ops(monkeypatch):
    planted = NoiseParams(cz_phaseflip=0.045, cz_loss_dark=0.012)
    refs = []
    for spec in (BenchmarkSpec("Ghz", 2), BenchmarkSpec("BernsteinVazirani", 2,
                                                        "11")):
        circuit, _ = generate(spec)
        refs.append((circuit, run_reference(circuit, planted)))
    built, evals, scheduled, looked_up, converted = [], [], [], [], []
    fuse, evaluate = gatemodel.fuse, fit.mean_reference_fidelity
    convert = gatemodel.kraus_matrix
    schedule, native_op = runner.schedule_layers, gatemodel.native_op
    steps, names = gatemodel._steps, []

    def named_steps(name, *args):
        # an op's steps are listed only to be fused: the name of the op built
        names.append(name)
        return steps(name, *args)

    def counted_fuse(op_steps):
        built.append((len(evals), names[-1]))
        return fuse(op_steps)

    def counted_convert(channel):
        converted.append(len(evals))
        return convert(channel)

    def counted_evaluate(*args, **kwargs):
        evals.append(None)
        return evaluate(*args, **kwargs)

    def counted_schedule(circuit):
        scheduled.append(len(evals))
        return schedule(circuit)

    def counted_native_op(g, *args, **kwargs):
        looked_up.append((len(evals), g.name))
        return native_op(g, *args, **kwargs)

    # the references' pass plans are memoized, so empty that memo too: the
    # first evaluation then compiles each plan and builds every op
    runner._reference.cache_clear()
    monkeypatch.setattr(gatemodel, "_fused_ops", {})
    monkeypatch.setattr(gatemodel, "_steps", named_steps)
    monkeypatch.setattr(gatemodel, "fuse", counted_fuse)
    monkeypatch.setattr(gatemodel, "kraus_matrix", counted_convert)
    monkeypatch.setattr(fit, "mean_reference_fidelity", counted_evaluate)
    monkeypatch.setattr(runner, "schedule_layers", counted_schedule)
    monkeypatch.setattr(gatemodel, "native_op", counted_native_op)
    problem = FitProblem(refs, free_params=("cz_phaseflip", "cz_loss_dark",
                                            "cz_decay", "cz_phaseshift"),
                         n_starts=2, max_evals=40)
    fit_noise_params(problem)
    assert len(evals) > 2
    assert {name for at, name in built if at == 1} == {
        "grot", "rz", "cz", "preparation"}
    assert {name for at, name in built if at > 1} == {"cz"}
    # a cz rebuild combines cached constant ops: no Kraus set is converted
    assert converted and max(converted) == 1
    # later evaluations reuse the plans: no scheduling, no 1-site lookup
    assert scheduled and set(scheduled) == {1}
    assert {name for at, name in looked_up if at > 1} == {"cz"}


def test_a_fit_evaluation_reads_no_bitstrings(monkeypatch):
    # a reference and an output are scored as vectors: the bitstring map
    # is read only where a distribution is written out
    refs = []
    for spec in (BenchmarkSpec("Ghz", 3), BenchmarkSpec("BernsteinVazirani", 3,
                                                        "101")):
        circuit, _ = generate(spec)
        refs.append((circuit, run_reference(circuit, NoiseParams())))

    def no_entries(dist):
        raise AssertionError("Distribution.entries read")

    monkeypatch.setattr(Distribution, "entries", property(no_entries))
    fid = mean_reference_fidelity(refs, NoiseParams(cz_phaseflip=0.03))
    assert 0.0 < fid < 1.0


def test_fit_with_every_rate_free_converges():
    # twelve free coordinates on three references: the curvature is
    # singular, and the search must still end converged
    planted = NoiseParams(cz_phaseflip=0.045, cz_loss_dark=0.012)
    refs = []
    for kind, width in (("Ghz", 2), ("Ghz", 3), ("BernsteinVazirani", 3)):
        spec = sample_instances(kind, width, n_samples=1, seed=12)[0]
        circuit, _ = generate(spec)
        refs.append((circuit, run_reference(circuit, planted)))
    problem = FitProblem(refs, free_params=DEFAULT_FREE, n_starts=1,
                         max_evals=1500, seed=12)
    _, fidelity, report = fit_noise_params(problem)
    assert len(DEFAULT_FREE) == 12
    assert report["starts"][0]["status"] == "converged", report
    assert report["evals"] <= 1500
    assert fidelity > 1 - 1e-9, report

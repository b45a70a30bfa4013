"""Command-line interface, end to end in a temporary directory."""

import csv
import json
import math

import pytest

from atombench import bench, runner
from atombench.bench import BenchmarkSpec
from atombench.channels import NoiseParams
from atombench.cli import main
from atombench.runner import run_reference


def test_run_command(tmp_path):
    cfg = {
        "noise": "noiseless",
        "kinds": ["Ghz"],
        "widths": [2, 3],
        "topologies": ["all_to_all", "grid"],
        "samples_per_point": {"Ghz": 1},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    records = json.loads((out / "results.json").read_text())
    assert len(records) == 4
    assert all(abs(r["f"] - 1.0) < 1e-6 for r in records)
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["topology"] for r in rows} == {"all_to_all", "grid"}
    assert (out / "heatmap.csv").exists()


# summary.csv in sweep order, heatmap.csv sorted by (topology, kind,
# width); both end rows in "\r\n" (the csv module's default)
SUMMARY_CSV = (
    "kind,width,topology,n_instances,n_failed,mean_fidelity,mean_depth\n"
    "Ghz,2,grid,1,0,1.000000,7.00\n"
    "Ghz,2,all_to_all,1,0,1.000000,7.00\n"
    "Ghz,3,grid,1,0,1.000000,11.00\n"
    "Ghz,3,all_to_all,1,0,1.000000,11.00\n"
    "BernsteinVazirani,2,grid,3,0,1.000000,11.33\n"
    "BernsteinVazirani,2,all_to_all,3,0,1.000000,11.33\n"
    "BernsteinVazirani,3,grid,3,0,1.000000,17.33\n"
    "BernsteinVazirani,3,all_to_all,3,0,1.000000,12.33\n")
HEATMAP_CSV = (
    "topology,kind,width,mean_depth,mean_fidelity\n"
    "all_to_all,BernsteinVazirani,2,11.33,1.000000\n"
    "all_to_all,BernsteinVazirani,3,12.33,1.000000\n"
    "all_to_all,Ghz,2,7.00,1.000000\n"
    "all_to_all,Ghz,3,11.00,1.000000\n"
    "grid,BernsteinVazirani,2,11.33,1.000000\n"
    "grid,BernsteinVazirani,3,17.33,1.000000\n"
    "grid,Ghz,2,7.00,1.000000\n"
    "grid,Ghz,3,11.00,1.000000\n")


def test_run_command_csv_bytes(tmp_path):
    cfg = {
        "noise": "noiseless",
        "kinds": ["Ghz", "BernsteinVazirani"],
        "widths": [2, 3],
        "topologies": ["grid", "all_to_all"],
        "samples_per_point": {"Ghz": 1, "BernsteinVazirani": 3},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name, text in (("summary.csv", SUMMARY_CSV),
                       ("heatmap.csv", HEATMAP_CSV)):
        expected = text.replace("\n", "\r\n").encode()
        assert (out / name).read_bytes() == expected, name


def test_run_command_with_overrides(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--set", "kinds=[\"Ghz\"]", "--set", "widths=[2]",
               "--set", "noise.cz_phaseflip=0.2", "--out", str(out)])
    assert rc == 0
    records = json.loads((out / "results.json").read_text())
    assert all(r["f"] < 0.99 for r in records)


@pytest.mark.parametrize("override", [
    "noise.cz_phaseflip=abc", "noise.t1=\"10\"", "noise.cz_phaseflip=null",
    "noise.dur_cz=[1]", "noise.cz_phaseflip=true", "noise.dur_cz=Infinity",
    "noise.dur_cz=NaN",
])
def test_run_command_rejects_a_noise_value_that_is_no_real_number(
        override, tmp_path, capsys):
    rc = main(["run", "--set", "kinds=[\"Ghz\"]", "--set", "widths=[2]",
               "--set", override, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    name = override.split("=")[0].removeprefix("noise.")
    assert err.startswith("error:") and name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["config", "set"])
def test_run_command_passes_workers_to_run_suite(source, tmp_path,
                                                 monkeypatch):
    seen = []

    def run_suite(config):
        seen.append(config.workers)
        return [], []

    monkeypatch.setattr(runner, "run_suite", run_suite)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"workers": 3}))
    argv = (["--config", str(cfg_path)] if source == "config"
            else ["--set", "workers=2"])
    assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 0
    assert seen == [3 if source == "config" else 2]


def test_run_command_bad_config(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"noise": {"cz_phaseflip": 7.0}}))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("config", [
    [{"kinds": ["Ghz"]}],            # a JSON array, not an object
    {"widths": {"min": 2}},
    {"workers": "2"},
])
def test_run_command_rejects_bad_config_shapes(config, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def _write_reference(refs, params):
    """One Ghz w2 reference file simulated at `params`."""
    circuit, _ = bench.generate(BenchmarkSpec("Ghz", 2))
    measured = run_reference(circuit, params)
    refs.mkdir()
    (refs / "ghz2.json").write_text(json.dumps({
        "n_qubits": 2,
        "ops": [g.to_record() for g in circuit.ops],
        "measured": measured.entries,
        "metadata": circuit.metadata,
    }))


def test_fit_command(tmp_path):
    # one tiny reference generated at slightly perturbed noise
    refs = tmp_path / "refs"
    _write_reference(refs, NoiseParams(cz_phaseflip=0.05))
    cfg = {"fit": {"free_params": ["cz_phaseflip"], "n_starts": 1,
                   "max_evals": 60}}
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["fit", str(refs), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    fitted = json.loads((out / "fitted_params.json").read_text())
    report = json.loads((out / "fit_report.json").read_text())
    assert report["achieved_fidelity"] > 0.999
    assert fitted["cz_phaseflip"] == pytest.approx(0.05, rel=0.25)


def test_fit_command_rejects_non_numeric_param(tmp_path, capsys):
    refs = tmp_path / "refs"
    _write_reference(refs, NoiseParams())
    rc = main(["fit", str(refs), "--set",
               'fit.free_params=["cz_phaseflip_mode"]',
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [
    "fit.bogus=1", 'fit.max_evals="5"', "fit.n_starts=0",
    'fit.free_params=["cz_phaseflip", "cz_phaseflip"]'])
def test_fit_command_rejects_bad_fit_settings(override, tmp_path, capsys):
    refs = tmp_path / "refs"
    _write_reference(refs, NoiseParams())
    rc = main(["fit", str(refs), "--set", override,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fit_command_rejects_wrong_gate_arity(tmp_path, capsys):
    refs = tmp_path / "refs"
    refs.mkdir()
    (refs / "bad.json").write_text(json.dumps({
        "n_qubits": 1, "ops": [{"gate": "rz", "sites": [0], "params": []}],
        "measured": {"0": 1.0}}))
    rc = main(["fit", str(refs), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [5, {"n_qubits": 1, "ops": 5,
                                      "measured": {"0": 1.0}},
                                 {"n_qubits": 2, "measured": {"00": 1.0},
                                  "ops": [{"gate": "cz", "sites": [0, 1.7]}]},
                                 # too wide for any memory cap: reading the
                                 # bits used to build a 2^n vector first, 8
                                 # GiB at 30 bits, a bare ValueError at 64
                                 {"n_qubits": 30, "ops": [],
                                  "measured": {"0" * 30: 1.0}},
                                 {"n_qubits": 64, "ops": [],
                                  "measured": {"0" * 64: 1.0}},
                                 # a NaN angle used to load, run and score
                                 {"n_qubits": 1, "measured": {"0": 1.0},
                                  "ops": [{"gate": "rz", "sites": [0],
                                           "params": [math.nan]}]}])
def test_fit_command_rejects_a_misshapen_reference(doc, tmp_path, capsys):
    refs = tmp_path / "refs"
    refs.mkdir()
    (refs / "bad.json").write_text(json.dumps(doc))
    rc = main(["fit", str(refs), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_gatefid_command(capsys):
    rc = main(["gatefid"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("cz" in l for l in lines)
    assert any("global_rotation" in l for l in lines)


def _noise_command(command, tmp_path, noise):
    cfg = {"noise": noise}
    argv = [command]
    if command == "run":
        cfg.update(kinds=["Ghz"], widths=[2], samples_per_point={"Ghz": 1})
        argv += ["--out", str(tmp_path / "out")]
    elif command == "fit":
        refs = tmp_path / "refs"
        _write_reference(refs, NoiseParams.noiseless())
        cfg["fit"] = {"free_params": ["cz_phaseflip"], "n_starts": 1,
                      "max_evals": 10}
        argv += [str(refs), "--out", str(tmp_path / "out")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return main(argv + ["--config", str(cfg_path)])


@pytest.mark.parametrize("command", ["run", "fit", "gatefid"])
def test_noiseless_keyword_in_every_command(command, tmp_path, capsys):
    assert _noise_command(command, tmp_path, "noiseless") == 0
    if command == "gatefid":
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [float(r.split()[-1]) for r in rows] == pytest.approx([1.0] * 3)


@pytest.mark.parametrize("command", ["run", "fit", "gatefid"])
def test_missing_noise_file_is_an_error_message(command, tmp_path, capsys):
    missing = tmp_path / "no-such-noise.json"
    assert _noise_command(command, tmp_path, str(missing)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no-such-noise.json" in err

"""Command-line front end: benchmark sweeps, calibration fits, gate tables.

Subcommands:
  run      execute a benchmark sweep from a JSON config; writes results.json,
           summary.csv and heatmap.csv into the output directory.
  fit      calibrate noise parameters against a directory of external-circuit
           files with measured distributions.
  gatefid  print the exact Haar-average fidelities of the three native gates.

Config values can be overridden with repeated --set dotted.path=value flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import bench, fit as fitmod, metrics, runner
from .channels import NoiseParams
from .errors import AtombenchError


def _load_config(args) -> dict:
    """The --config file (empty without one), with each --set applied."""
    config = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise AtombenchError(
                f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(config, dict):
            raise AtombenchError(
                f"config {args.config!r} is not a JSON object")
    for assignment in getattr(args, "set", None) or ():
        _apply_override(config, assignment)
    return config


def _apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise AtombenchError(f"override {assignment!r} is not KEY=VALUE")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise AtombenchError(f"override path {key!r} crosses a non-object")
    node[parts[-1]] = value


_SUMMARY_COLUMNS = ("kind", "width", "topology", "n_instances", "n_failed",
                    "mean_fidelity", "mean_depth")
# long format: (width, mean depth, fidelity) per topology and kind
_HEATMAP_COLUMNS = ("topology", "kind", "width", "mean_depth", "mean_fidelity")
_FORMATS = {"mean_fidelity": "{:.6f}", "mean_depth": "{:.2f}"}


def _write_csv(aggregates: list, columns: tuple, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for a in aggregates:
            w.writerow([_FORMATS.get(c, "{}").format(a[c]) for c in columns])


def cmd_run(args) -> int:
    run_config = runner.RunConfig.from_dict(_load_config(args))
    records, aggregates = runner.run_suite(run_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner.save_records(records, out / "results.json")
    _write_csv(aggregates, _SUMMARY_COLUMNS, out / "summary.csv")
    _write_csv(sorted(aggregates, key=lambda a: (a["topology"], a["kind"],
                                                 a["width"])),
               _HEATMAP_COLUMNS, out / "heatmap.csv")
    failures = [r for r in records if r.status == "error"]
    if failures:
        runner.save_records(failures, out / "failures.json")
        print(f"{len(failures)} of {len(records)} instances failed; "
              f"see {out / 'failures.json'}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_fit(args) -> int:
    config = _load_config(args)
    ref_dir = Path(args.references)
    files = sorted(ref_dir.glob("*.json")) if ref_dir.is_dir() else []
    if not files:
        print(f"no reference files in {ref_dir}", file=sys.stderr)
        return 1
    references = [bench.load_external(f) for f in files]
    base = NoiseParams.load(config.get("noise", {}))
    fit_config = config.get("fit", {})
    settable = set(fitmod.FitProblem.__dataclass_fields__) - {
        "references", "base_params"}
    if not isinstance(fit_config, dict) or set(fit_config) - settable:
        raise AtombenchError(f"fit section may only set {sorted(settable)}, "
                             f"got {fit_config!r}")
    kwargs = {k: tuple(v) if k == "free_params" and isinstance(v, list)
              else v for k, v in fit_config.items()}
    problem = fitmod.FitProblem(references, base_params=base, **kwargs)
    params, fidelity, report = fitmod.fit_noise_params(problem)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params.to_json(out / "fitted_params.json")
    with open(out / "fit_report.json", "w") as fh:
        json.dump({"achieved_fidelity": fidelity,
                   "n_references": len(references),
                   "free_params": list(problem.free_params),
                   **report}, fh, indent=1)
    print(f"achieved mean fidelity {fidelity:.6f}; params in "
          f"{out / 'fitted_params.json'}")
    return 0


def cmd_gatefid(args) -> int:
    params = NoiseParams.load(_load_config(args).get("noise", {}))
    print(f"{'gate':<18}{'average fidelity':>17}")
    for gate in ("global_rotation", "local_rz", "cz"):
        f = metrics.average_gate_fidelity(gate, params)
        print(f"{gate:<18}{f:>17.8f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="atombench",
        description="Noisy ququart density-matrix benchmark simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a benchmark sweep")
    run.add_argument("--config", help="JSON run configuration")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a dotted config path")
    run.add_argument("--out", default="out")
    run.set_defaults(func=cmd_run)

    fit_p = sub.add_parser("fit", help="calibrate noise parameters")
    fit_p.add_argument("references", help="directory of reference files")
    fit_p.add_argument("--config", help="JSON config with noise/fit sections")
    fit_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    fit_p.add_argument("--out", default="out")
    fit_p.set_defaults(func=cmd_fit)

    gf = sub.add_parser("gatefid", help="Haar-average native-gate fidelities")
    gf.add_argument("--config", help="JSON config with a noise section")
    gf.set_defaults(func=cmd_gatefid)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AtombenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

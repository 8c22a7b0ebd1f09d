"""Command-line front end.

Subcommands: ``validate`` a config file, ``trial`` for a single debug trial
(``--debug-dump`` writes its timing metric and CFO cost curves), ``run`` for
an experiment spec file, and ``figure`` for one or more of the built-in
experiment presets.

Exit codes: 0 success, 2 configuration error, 3 estimation failure (or a
run whose failure fraction exceeds MAX_FAILURE_FRACTION), 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys

from . import harness
from .config import SystemConfig, apply_overrides, coerce, echo_config, load_config
from .errors import (ConfigError, EstimationError, OtfsyncError, PlacementError,
                     RealizationError)

OUT_ENV_VAR = "OTFSYNC_OUT"
MAX_FAILURE_FRACTION = 0.5

#: sweep grids shared by the figure presets
_SNR_POINTS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
_DOPPLER_POINTS = (0.5, 1.0, 1.5, 2.0, 2.5, 2.91)
_CFO_POINTS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


_SNR_SPECS = tuple(
    harness.ExperimentSpec(f"q{q}", "snr_db", _SNR_POINTS, 200,
                           config_overrides=(("num_users", str(q)),))
    for q in (2, 4))
_DOPPLER_SPECS = tuple(
    harness.ExperimentSpec(f"q{q}", "nu_max_t", _DOPPLER_POINTS, 200,
                           config_overrides=(("num_users", str(q)), ("snr_db", "20")))
    for q in (2, 4))

#: experiment specs behind each figure preset (desk-scale trial counts); fig3
#: is a single-trial snapshot, handled by ``cmd_figure``
PRESETS = {
    "fig4a": _SNR_SPECS,
    "fig4b": _DOPPLER_SPECS[1:],
    "fig5a": _SNR_SPECS,
    "fig5b": _DOPPLER_SPECS,
    "fig6": (harness.ExperimentSpec("nmse", "cfo_value", _CFO_POINTS, 200,
                                    absorbed_baseline=True,
                                    config_overrides=(("num_users", "2"), ("snr_db", "20"))),),
}


def _preset_specs(name: str) -> list[harness.ExperimentSpec]:
    if name not in PRESETS:
        raise ConfigError(f"unknown figure {name!r}; available presets: "
                          + ", ".join(["fig3", *PRESETS]))
    return list(PRESETS[name])


def _out_root(args) -> str:
    return args.out or os.environ.get(OUT_ENV_VAR, "out")


def _base_config(args, runs_experiment: bool = False) -> tuple[SystemConfig, int | None]:
    """The config after --config, --seed and --override, plus the
    experiment-level ``trials`` override (None when not given), which is a
    ConfigError for a command that runs no experiment."""
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if getattr(args, "trial_index", 0) < 0:
        raise ConfigError(f"--trial-index must be >= 0, got {args.trial_index}")
    cfg = load_config(args.config) if args.config else SystemConfig()
    overrides, trials = {}, None
    if args.seed is not None:
        overrides["rng_seed"] = str(args.seed)
    for item in args.override or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        if key.strip() == "trials":
            if not runs_experiment:
                command = " ".join([args.command, *getattr(args, "names", [])])
                raise ConfigError(f"--override trials= does not apply to {command!r}, "
                                  "which runs no experiment")
            trials = coerce("int", val, "trials")
        else:
            overrides[key.strip()] = val.strip()
    cfg = apply_overrides(cfg, overrides) if overrides else cfg.validate()
    return cfg, trials


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _with_run_options(spec: harness.ExperimentSpec, trials: int | None, debug_dump: bool):
    """``spec`` with the ``--override trials=`` count, if any, and ``--debug-dump``."""
    return dataclasses.replace(spec, trials=spec.trials if trials is None else trials,
                               per_trial_dump=spec.per_trial_dump or debug_dump)


def _dump_debug(target: str, debug: list[dict], cfg: SystemConfig) -> None:
    """A trial's timing_metric.csv, cfo_cost.csv and config spec-echo."""
    lines = ["user,delay_bin,value"]
    for entry in debug:
        for l, value in enumerate(entry["timing_metric"]):
            lines.append(f"{entry['user']},{l},{value:.12g}")
    _write(os.path.join(target, "timing_metric.csv"), "\n".join(lines) + "\n")
    lines = ["user,cfo,cost"]
    for entry in debug:
        for eps, cost in zip(entry["cfo_grid"], entry["cfo_cost"]):
            lines.append(f"{entry['user']},{eps:.12g},{cost:.12g}")
    _write(os.path.join(target, "cfo_cost.csv"), "\n".join(lines) + "\n")
    _write(os.path.join(target, "spec-echo"), echo_config(cfg))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    cfg, _ = _base_config(args)
    print("configuration ok")
    if args.verbose:
        print(echo_config(cfg), end="")
    return 0


def cmd_trial(args) -> int:
    cfg, _ = _base_config(args)
    records, debug = harness.run_trial(cfg, args.trial_index,
                                       collect_debug=args.debug_dump)
    for rec in records:
        print(harness.json_line(dataclasses.asdict(rec)))
    if args.debug_dump:
        target = os.path.join(_out_root(args), "trial")
        _dump_debug(target, debug, cfg)
        print(f"debug dump written to {target}", file=sys.stderr)
    if any(rec.failed for rec in records):
        return 3
    return 0


def cmd_run(args) -> int:
    cfg, trials = _base_config(args, runs_experiment=True)
    spec = _with_run_options(harness.load_experiment(args.spec), trials,
                             args.debug_dump)
    report = harness.run_experiment(spec, base_cfg=cfg, out_dir=_out_root(args),
                                    workers=args.workers)
    print(f"{spec.name}: {report.n_trials} per-user records, "
          f"{report.n_failed} failed -> {os.path.join(_out_root(args), spec.name)}")
    if report.n_trials and report.n_failed / report.n_trials > MAX_FAILURE_FRACTION:
        return 3
    return 0


def cmd_figure(args) -> int:
    """Run the named presets; a sweep that several presets share (``fig5a``
    repeats ``fig4a``, ``fig4b`` is the Q=4 row of ``fig5b``) runs once and
    its output directory is copied to the other paths."""
    names = list(dict.fromkeys(args.names))
    presets = {name: _preset_specs(name) for name in names if name != "fig3"}
    cfg, trials = _base_config(args, runs_experiment=bool(presets))
    failed = False
    worst_fraction = 0.0
    done: dict[harness.ExperimentSpec, str] = {}   # spec -> directory of its run
    for name in names:
        out_root = os.path.join(_out_root(args), name)
        if name == "fig3":
            # timing-metric snapshot for every user of a single trial
            snapshot_cfg = apply_overrides(cfg, {"num_users": "2"})
            records, debug = harness.run_trial(snapshot_cfg, args.trial_index,
                                               collect_debug=True)
            _dump_debug(out_root, debug, snapshot_cfg)
            print(f"fig3: timing metric snapshot -> {out_root}")
            failed = failed or any(rec.failed for rec in records)
            continue
        for spec in presets[name]:
            spec = _with_run_options(spec, trials, args.debug_dump)
            target = os.path.join(out_root, spec.name)
            if spec in done:
                shutil.copytree(done[spec], target, dirs_exist_ok=True)
                print(f"{name}/{spec.name}: same sweep as {done[spec]}, copied")
                continue
            report = harness.run_experiment(spec, base_cfg=cfg, out_dir=out_root,
                                            workers=args.workers)
            done[spec] = target
            if report.n_trials:
                worst_fraction = max(worst_fraction, report.n_failed / report.n_trials)
            print(f"{name}/{spec.name}: {report.n_trials} per-user records, "
                  f"{report.n_failed} failed")
        print(f"results under {out_root}")
    return 3 if failed or worst_fraction > MAX_FAILURE_FRACTION else 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--config", help="system config file (key = value lines)")
    sub.add_argument("--out", help=f"output root (default $"
                     f"{OUT_ENV_VAR} or ./out)")
    sub.add_argument("--seed", type=int, help="override rng_seed")
    sub.add_argument("--workers", type=int, default=1,
                     help="parallel trial workers")
    sub.add_argument("--override", action="append", metavar="KEY=VALUE",
                     help="override a config field (or trials=N); repeatable, and "
                     "the last of a repeated key wins")
    sub.add_argument("--debug-dump", action="store_true",
                     help="write per-trial diagnostics")
    sub.add_argument("--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfsync",
        description="Multiuser OTFS uplink synchronization experiments")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="validate a config file")
    _add_common(sub)
    sub.set_defaults(func=cmd_validate)

    sub = commands.add_parser("trial", help="run one trial and print the records")
    _add_common(sub)
    sub.add_argument("--trial-index", type=int, default=0)
    sub.set_defaults(func=cmd_trial)

    sub = commands.add_parser("run", help="run an experiment spec file")
    _add_common(sub)
    sub.add_argument("--spec", required=True, help="experiment spec file")
    sub.set_defaults(func=cmd_run)

    sub = commands.add_parser("figure", help="run built-in experiment presets")
    _add_common(sub)
    sub.add_argument("names", nargs="+", metavar="name",
                     help="one or more of fig3, fig4a, fig4b, fig5a, fig5b and fig6")
    sub.add_argument("--trial-index", type=int, default=0,
                     help="trial used for the fig3 snapshot")
    sub.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, RealizationError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3
    except OtfsyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()

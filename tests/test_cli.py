"""Command-line front end: malformed input, overrides, and the figure presets."""

import json
import os

import pytest

from otfsync import cli, harness
from otfsync.errors import ConfigError

SPEC = """
name = tiny
sweep_var = snr_db
sweep_points = 20
trials = 2
config.num_users = 1
config.channel_model = eva
config.channel_len_cap = 1
config.nu_max_t = 0.0
"""


def run_cli(tmp_path, *argv, spec=SPEC, config=None):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(spec)
    args = ["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]
    if config is not None:
        config_path = tmp_path / "system.cfg"
        config_path.write_text(config)
        args += ["--config", str(config_path)]
    return cli.main(args + list(argv))


@pytest.mark.parametrize("spec, argv, config, fragment", [
    (SPEC.replace("sweep_points = 20", "sweep_points = 10, x"), (), None,
     "cannot parse tuple"),
    (SPEC + "absorbed_baseline = ture\n", (), None, "cannot parse bool"),
    (SPEC, ("--override", "trials=abc"), None, "cannot parse int"),
    (SPEC, ("--override", "trials=x=1"), None, "cannot parse int"),
    (SPEC, ("--workers", "0"), None, "--workers must be >= 1"),
    (SPEC, (), "pilot_region_mode = wrap\n", "unknown key 'pilot_region_mode'"),
    (SPEC, (), "gram_loading = 0.0\n", "unknown key 'gram_loading'"),
    (SPEC.replace("sweep_points = 20", "sweep_points = nan"), (), None, "must not be NaN"),
    (SPEC.replace("sweep_var = snr_db", "sweep_var = cfo_value").replace(
        "sweep_points = 20", "sweep_points = 0.1, inf"), (), None, "must be finite"),
    # the spec name is one directory under --out: ../x would write beside it
    (SPEC.replace("name = tiny", "name = ../x"), (), None, "one directory name"),
    (SPEC.replace("name = tiny", "name ="), (), None, "one directory name"),
    # a repeated key was taken at its last value, and both config lines echoed
    (SPEC + "config.num_users = 2\n", (), None, "key 'config.num_users' repeats line 6"),
    (SPEC, (), "snr_db = 10\nsnr_db = 30\n", "line 2: key 'snr_db' repeats line 1"),
    # finite values that overflowed the run into inf or a traceback
    (SPEC, ("--override", "cfo_max=1e300"), None,
     "cfo_max=1e+300 is outside [-n/2, n/2] = [-16, 16]"),
    (SPEC.replace("sweep_var = snr_db", "sweep_var = cfo_value").replace(
        "sweep_points = 20", "sweep_points = 0.1, 1e300"), (), None,
     "cfo_value=1e+300 is outside [-n/2, n/2]"),
    (SPEC, ("--override", "pilot_power_db=1e300"), None, "above the ceiling of 1000 dB"),
], ids=["sweep-points", "bool", "trials-abc", "trials-x=1", "workers-0",
        "pilot-region-mode", "gram-loading", "sweep-point-nan", "cfo-value-inf",
        "name-parent", "name-empty", "spec-key-repeated", "config-key-repeated",
        "cfo-max-huge", "cfo-value-huge", "pilot-power-huge"])
def test_malformed_input_is_a_config_error(tmp_path, capsys, spec, argv, config,
                                           fragment):
    assert run_cli(tmp_path, *argv, spec=spec, config=config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err
    # nothing written: no out/, and no ../x beside it
    assert {path.name for path in tmp_path.iterdir()} <= {"spec.txt", "system.cfg"}


def test_nan_override_is_a_config_error(capsys):
    assert cli.main(["validate", "--override", "snr_db=nan"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "snr_db is NaN" in captured.err
    assert "Traceback" not in captured.err and "configuration ok" not in captured.out


@pytest.mark.parametrize("command", ["validate", "trial"])
def test_snr_below_the_floor_is_a_config_error(capsys, command):
    # 10 ** 400 overflowed in the noise amplitude after validate said ok
    assert cli.main([command, "--override", "snr_db=-4000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "below the floor" in captured.err
    assert "Traceback" not in captured.err and "configuration ok" not in captured.out


@pytest.mark.parametrize("override, fragment", [
    # every user's data lies in its filter band: a config that still picks an
    # allocation scheme names an unknown key
    ("allocation=interleaved", "unknown config key 'allocation'"),
    # the config is the only guard of the pilot geometry: an offset past the
    # band (16 bins at the default N=32, Q=2)
    ("pilot_offset=16", "pilot_offset=16 outside the user band"),
    # a channel of no taps: at 0 every EVA tap would sit at delay -1 and each
    # NMSE be null, below it the channel would raise an IndexError
    ("channel_len_cap=0", "channel_len_cap=0 must be >= 1"),
    ("channel_len_cap=-3", "channel_len_cap=-3 must be >= 1"),
    # a grid of 4e9 points, 32 GB: only ever validated, never run
    ("cfo_step=1e-9", "the cap on the CFO grid's points"),
    # a removed model: channel_model = eva with channel_len_cap = 1 draws it
    ("channel_model=single-tap", "not one of ('eva', 'eva-bem', 'identity')"),
], ids=["allocation", "pilot-offset-past-band", "no-channel-taps", "negative-channel-length",
        "cfo-step-tiny", "removed-channel-model"])
def test_validate_rejects_a_bad_override(capsys, override, fragment):
    assert cli.main(["validate", "--override", override]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and fragment in captured.err
    assert "Traceback" not in captured.err and "configuration ok" not in captured.out


def test_trial_records_print_as_strict_json(capsys):
    # every record fails without a pilot: exit 3, NaN estimates printed as null
    assert cli.main(["trial", "--override", "pilot_power_db=-inf"]) == 3
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line, parse_constant=lambda token: pytest.fail(token))
               for line in lines]
    assert len(records) == 2
    assert all(rec["failed"] and rec["eps_hat"] is None and rec["nmse"] is None
               for rec in records)


@pytest.mark.parametrize("argv", [
    ("validate",), ("trial",), ("figure", "fig3"),
], ids=["validate", "trial", "figure-fig3"])
def test_trials_override_rejected_without_an_experiment(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--override", "trials=5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "runs no experiment" in err
    assert " ".join(argv) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("trial",), ("figure", "fig3")], ids=["trial", "figure-fig3"])
def test_negative_trial_index_is_a_config_error(tmp_path, capsys, argv):
    # the trial's stream is seeded with (rng_seed, trial_index), which numpy
    # rejects for a negative index
    out = tmp_path / "out"
    assert cli.main([*argv, "--trial-index", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--trial-index must be >= 0" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_trials_override_reaches_the_spec(tmp_path, capsys):
    assert run_cli(tmp_path, "--override", "trials=1", "--seed", "3") == 0
    lines = (tmp_path / "out" / "tiny" / "results.csv").read_text().splitlines()
    assert all(line.endswith(",1,0") for line in lines[1:])
    assert "tiny: 1 per-user records, 0 failed" in capsys.readouterr().out


# -- figure presets ---------------------------------------------------------------

SNR = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
DOPPLER = (0.5, 1.0, 1.5, 2.0, 2.5, 2.91)
SNR_SPECS = [
    harness.ExperimentSpec("q2", "snr_db", SNR, 200,
                           config_overrides=(("num_users", "2"),)),
    harness.ExperimentSpec("q4", "snr_db", SNR, 200,
                           config_overrides=(("num_users", "4"),)),
]
PRESET_SPECS = {
    "fig4a": SNR_SPECS,
    "fig4b": [
        harness.ExperimentSpec("q4", "nu_max_t", DOPPLER, 200,
                               config_overrides=(("num_users", "4"), ("snr_db", "20"))),
    ],
    "fig5a": SNR_SPECS,
    "fig5b": [
        harness.ExperimentSpec("q2", "nu_max_t", DOPPLER, 200,
                               config_overrides=(("num_users", "2"), ("snr_db", "20"))),
        harness.ExperimentSpec("q4", "nu_max_t", DOPPLER, 200,
                               config_overrides=(("num_users", "4"), ("snr_db", "20"))),
    ],
    "fig6": [
        harness.ExperimentSpec("nmse", "cfo_value", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5), 200,
                               absorbed_baseline=True,
                               config_overrides=(("num_users", "2"), ("snr_db", "20"))),
    ],
}


@pytest.mark.parametrize("name", sorted(PRESET_SPECS))
def test_preset_specs_unchanged(name):
    assert cli._preset_specs(name) == PRESET_SPECS[name]


def test_fig4a_and_fig5a_share_specs():
    assert cli._preset_specs("fig4a") == cli._preset_specs("fig5a")


def test_unknown_preset_lists_all_figures():
    with pytest.raises(ConfigError, match="fig3, fig4a, fig4b, fig5a, fig5b, fig6"):
        cli._preset_specs("fig7")


def _tree(root):
    """{relative path: bytes} of every file under root."""
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_figure_runs_each_distinct_sweep_once(tmp_path, monkeypatch):
    calls = []
    run_experiment = harness.run_experiment

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return run_experiment(spec, *args, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", counting)
    names = ["fig4a", "fig4b", "fig5a", "fig5b", "fig6"]
    together = tmp_path / "together"
    assert cli.main(["figure", *names, "--override", "trials=1", "--out", str(together)]) == 0
    # fig5a repeats fig4a's two sweeps and fig4b is fig5b's Q=4 sweep: 8 -> 5
    assert len(calls) == len(set(calls)) == 5
    apart = tmp_path / "apart"
    for name in names:
        assert cli.main(["figure", name, "--override", "trials=1", "--out", str(apart)]) == 0
    assert len(calls) == 5 + 8
    tree = _tree(together)
    assert len(tree) == 2 * 8
    assert tree == _tree(apart)

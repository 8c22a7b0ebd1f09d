"""Config parsing, validation messages, and overrides."""

import math
import warnings

import pytest

from otfsync import harness
from otfsync.config import (CFO_GRID_CAP, PILOT_POWER_DB_CEIL, SNR_DB_FLOOR, SystemConfig,
                            apply_overrides, default_bem_order, echo_config, parse_config_text)
from otfsync.errors import ConfigError


def test_default_config_is_valid():
    cfg = SystemConfig().validate()
    assert cfg.n_s == cfg.m * cfg.n + cfg.cp_len
    assert cfg.cp_rem == cfg.cp_len - cfg.theta_max
    assert cfg.anchor == cfg.m - cfg.zc_len
    assert cfg.offset == (cfg.n // cfg.num_users) // 2
    assert cfg.beta == default_bem_order(cfg.nu_max_t)


def test_cp_rule_violation_message():
    cfg = SystemConfig(cp_len=5, theta_max=4, channel_len_cap=10)
    with pytest.raises(ConfigError, match="max L_ch \\+ theta_max - 1"):
        cfg.validate()


@pytest.mark.parametrize("field,value,fragment", [
    ("threshold", "0.0", "outside"),
    ("threshold", "1.5", "outside"),
    ("zc_len", "70", "exceeds m"),
    ("zc_root", "5", "coprime"),
    ("allocation", "interleaved", "unknown config key 'allocation'"),
    ("num_users", "200", "exceeds"),
    ("n", "4", "bem_order=7 exceeds the Doppler axis n=4"),
    ("pilot_offset", "16", "outside the user band"),
    ("pilot_anchor", "0", "leaves the delay axis"),
    ("channel_len_cap", "0", "channel_len_cap=0 must be >= 1"),
    # finite values that overflowed the run, or would exhaust memory
    ("cfo_max", "1e300", "cfo_max=1e\\+300 is outside \\[-n/2, n/2\\] = \\[-16, 16\\]"),
    ("cfo_max", "16.5", "cfo_max=16.5 is outside"),
    ("pilot_power_db", "1e300", "above the ceiling of 1000 dB"),
    ("pilot_power_db", "3100", "above the ceiling of 1000 dB"),
    ("cfo_step", "1e-9", "cfo_step = 2e\\+09 exceeds 5000"),
])
def test_invariant_messages(field, value, fragment):
    with pytest.raises(ConfigError, match=fragment):
        apply_overrides(SystemConfig(), {field: value})


FLOAT_FIELDS = ("snr_db", "pilot_power_db", "nu_max_t", "threshold", "cfo_range",
                "cfo_step", "cfo_tol", "cfo_max")


@pytest.mark.parametrize("field,value,fragment", [
    *[(name, "nan", f"{name} is NaN") for name in FLOAT_FIELDS],
    ("snr_db", "-inf", "snr_db=-inf"),
    ("pilot_power_db", "inf", "pilot_power_db=inf"),
    ("nu_max_t", "inf", "nu_max_t=inf must be finite and >= 0"),
    ("nu_max_t", "-inf", "nu_max_t=-inf must be finite and >= 0"),
    ("nu_max_t", "-1", "nu_max_t=-1.0 must be finite and >= 0"),
    ("cfo_range", "inf", "must all be finite"),
    ("cfo_step", "inf", "must all be finite"),
    ("cfo_tol", "inf", "must all be finite"),
    ("cfo_max", "inf", "must all be finite"),
    ("cfo_max", "-inf", "must all be finite"),
])
def test_malformed_floats_rejected(field, value, fragment):
    # a NaN or an infinity that no experiment means must not reach the
    # pipeline, where it ends in a traceback or a silent default
    with pytest.raises(ConfigError, match=fragment):
        apply_overrides(SystemConfig(), {field: value})


@pytest.mark.parametrize("value", ["-4000", "-3070", "-1000.5", "-1e308"])
def test_snr_below_the_floor_rejected(value):
    # the noise amplitude of -4000 dB overflows, and at -3070 dB the CFO
    # search's a^2 terms do; the floor keeps every receiver quantity finite
    with pytest.raises(ConfigError, match="below the floor of -1000 dB"):
        apply_overrides(SystemConfig(), {"snr_db": value})
    assert SNR_DB_FLOOR == -1000.0


@pytest.mark.parametrize("points", [(SNR_DB_FLOOR,), (SNR_DB_FLOOR, 0.0)])
def test_snr_at_the_floor_runs_with_finite_numbers(points):
    # one lane adds the noise to the stream, two share a front end and run
    # the lane search at a^2 = 5e99; no quantity overflows or turns NaN,
    # the aggregate rows included
    spec = harness.ExperimentSpec("floor", "snr_db", points, 2,
                                  config_overrides=(("num_users", "2"),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = harness.run_experiment(spec)
    assert report.n_failed == 0
    for row in report.rows:
        if row.metric != "to_err_var" or row.n_trials > 1:
            assert math.isfinite(row.value), row


def test_bounds_admit_their_edges():
    cfg = apply_overrides(SystemConfig(), {"cfo_max": "16", "pilot_power_db": "1000",
                                           "cfo_step": "0.0004"})
    assert cfg.cfo_max == cfg.n / 2 and cfg.cfo_violation("cfo_value", -cfg.n / 2) is None
    assert cfg.pilot_power_db == PILOT_POWER_DB_CEIL
    assert cfg.cfo_range / cfg.cfo_step == CFO_GRID_CAP


@pytest.mark.parametrize("cfo_value", [1e300, -16.5, math.nan])
def test_pinned_cfo_past_half_the_doppler_axis_rejected(cfo_value):
    # a pinned CFO skips the config's cfo_max check; run_trial and
    # run_experiment both reach it through the draw
    with pytest.raises(ConfigError, match="is outside \\[-n/2, n/2\\] = \\[-16, 16\\]"):
        harness.run_trial(SystemConfig(), 0, cfo_value=cfo_value)
    spec = harness.ExperimentSpec("pinned", "cfo_value", (0.1, 1e300), 1)
    with pytest.raises(ConfigError, match="cfo_value=1e\\+300 is outside"):
        harness.run_experiment(spec)


def test_pilot_power_at_the_ceiling_runs_with_finite_numbers():
    # the pilot at 1e50 in amplitude, beside lanes at the SNR floor
    spec = harness.ExperimentSpec("ceiling", "snr_db", (SNR_DB_FLOOR, 0.0, math.inf), 2,
                                  config_overrides=(("num_users", "2"),
                                                    ("pilot_power_db", str(PILOT_POWER_DB_CEIL))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = harness.run_experiment(spec)
    assert report.n_failed == 0
    for row in report.rows:
        if row.metric != "to_err_var" or row.n_trials > 1:
            assert math.isfinite(row.value), row


def test_repeated_key_is_an_error():
    # it was taken at its last value, silently
    with pytest.raises(ConfigError, match="line 3: key 'snr_db' repeats line 1"):
        parse_config_text("snr_db = 10\nm = 64\nsnr_db = 30\n")


def test_meaningful_infinities_accepted():
    # snr_db=inf is the noiseless channel, pilot_power_db=-inf a zero pilot
    cfg = apply_overrides(SystemConfig(), {"snr_db": "inf", "pilot_power_db": "-inf"})
    assert cfg.snr_db == math.inf and cfg.pilot_power_db == -math.inf


def test_bem_order_bound_enforced():
    with pytest.raises(ConfigError, match="below the bound"):
        apply_overrides(SystemConfig(), {"bem_order": "3", "nu_max_t": "2.91"})


def test_default_bem_order_rule():
    assert default_bem_order(0.0) == 1
    assert default_bem_order(0.5) == 3
    assert default_bem_order(2.91) == 7
    assert default_bem_order(10.0) == 12  # capped


def test_parse_roundtrip_and_comments():
    text = """
    # comment line
    m = 64
    n = 16
    num_users = 2
    snr_db = inf   # sentinel
    zc_len = 6
    """
    cfg = parse_config_text(text)
    assert cfg.m == 64 and cfg.n == 16
    assert math.isinf(cfg.snr_db)
    echoed = parse_config_text(echo_config(cfg))
    assert echoed == cfg


def test_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigError, match="valid keys"):
        parse_config_text("bandwidth = 3.84e6\n")
    with pytest.raises(ConfigError, match="valid keys"):
        apply_overrides(SystemConfig(), {"bogus": "1"})


def test_overrides_rederive_dependent_fields():
    base = SystemConfig().validate()
    q4 = apply_overrides(base, {"num_users": "4"})
    assert q4.band == base.n // 4
    assert q4.offset == q4.band // 2
    nu = apply_overrides(base, {"nu_max_t": "0.5"})
    assert nu.beta == default_bem_order(0.5)


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("m = twelve\n")
    with pytest.raises(ConfigError):
        parse_config_text("genie_to = maybe\n")

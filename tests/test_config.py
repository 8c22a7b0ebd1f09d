"""Config parsing, validation messages, and overrides."""

import math

import pytest

from otfsync.config import (SystemConfig, apply_overrides, default_bem_order,
                            echo_config, parse_config_text)
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

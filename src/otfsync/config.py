"""System dimensioning and experiment parameters.

All dimensioning follows the uplink frame layout: an M x N delay-Doppler
grid per user, serialized column-major (delay index fastest) into M*N
samples plus a cyclic prefix of ``cp_len`` samples, for ``n_s`` total
samples per frame.  Indexing is zero-based everywhere.

Sentinel field values (-1 for the pilot geometry, 0 for ``bem_order``)
mean "derive from the other fields"; the derived values are exposed as
the ``anchor``, ``offset`` and ``beta`` properties and recomputed after
any override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

CHANNEL_MODELS = ("eva", "eva-bem", "single-tap", "identity")

#: sample rate the delay axis is quantized to (Hz)
SAMPLE_RATE_HZ = 3.84e6
#: lowest accepted snr_db.  The noise amplitude a = sqrt(10**(-snr_db / 10) / 2)
#: is 7e49 there.  The receiver's quantities grow with a^2 (the CFO cost and
#: its derivatives, and a channel NMSE of about 1e96 at the floor), and the
#: variance behind an NMSE confidence interval with a^4 (about 1e193), so
#: every one stays inside the float range.  Below it they do not: that
#: variance overflows near -1550 dB, the CFO search's products at -3070 dB,
#: and the amplitude itself below -3082 dB.
SNR_DB_FLOOR = -1000.0
#: largest default and absorbed-baseline BEM order; an order this large may
#: fall below ``bem_order_bound``
BEM_ORDER_CAP = 12


def bem_order_bound(nu_max_t: float) -> int:
    """Minimum number of basis functions for a Doppler spread of nu_max_t."""
    return math.ceil(2.0 * nu_max_t + 1.0)


def default_bem_order(nu_max_t: float) -> int:
    """Bound rounded up to the next odd integer, capped at BEM_ORDER_CAP."""
    beta = bem_order_bound(nu_max_t)
    if beta % 2 == 0:
        beta += 1
    return min(beta, BEM_ORDER_CAP)


@dataclass(frozen=True)
class SystemConfig:
    """All dimensioning and experiment parameters."""

    m: int = 128                # delay bins
    n: int = 32                 # Doppler bins
    num_users: int = 2
    cp_len: int = 13            # frame CP length L_cp (samples)
    theta_max: int = 4          # largest timing offset the CP absorbs
    zc_len: int = 10            # Zadoff-Chu length; pilot spans 2*zc_len-1 delay bins
    zc_root: int = 1
    pilot_anchor: int = -1      # pilot delay anchor l_p; -1 -> m - zc_len
    pilot_offset: int = -1      # Doppler offset inside each user band; -1 -> band//2
    snr_db: float = 20.0        # data-symbol SNR (pilot boost excluded)
    pilot_power_db: float = 40.0
    nu_max_t: float = 2.91      # max Doppler spread normalized to the frame duration
    bem_order: int = 0          # 0 -> default_bem_order(nu_max_t)
    threshold: float = 0.25     # timing peak threshold, in (0, 1]
    cfo_range: float = 2.0      # one-sided CFO search range (Doppler spacings)
    cfo_step: float = 0.02      # coarse grid step
    cfo_tol: float = 1e-4       # CFO refinement tolerance
    cfo_max: float = 0.5        # CFO draw half-width per trial
    channel_model: str = "eva"
    channel_len_cap: int = 10   # largest channel length L_ch
    genie_to: bool = False      # use the true TO instead of the estimate
    rng_seed: int = 20250809

    # -- derived dimensions ---------------------------------------------------
    @property
    def n_s(self) -> int:
        """Total samples per frame: M*N + cp_len."""
        return self.m * self.n + self.cp_len

    @property
    def cp_rem(self) -> int:
        """CP samples left after the receive window drops theta_max."""
        return self.cp_len - self.theta_max

    @property
    def band(self) -> int:
        """Doppler bins per user filter band."""
        return self.n // self.num_users

    @property
    def anchor(self) -> int:
        """Pilot delay anchor l_p (resolved)."""
        return self.pilot_anchor if self.pilot_anchor >= 0 else self.m - self.zc_len

    @property
    def offset(self) -> int:
        """Pilot Doppler offset inside each user band (resolved)."""
        return self.pilot_offset if self.pilot_offset >= 0 else self.band // 2

    @property
    def delay_lo(self) -> int:
        """First delay row of the shared pilot span, anchor - zc_len + 1."""
        return self.anchor - self.zc_len + 1

    @property
    def delay_hi(self) -> int:
        """Last delay row of the shared pilot span, anchor + zc_len - 1."""
        return self.anchor + self.zc_len - 1

    def pilot_bin(self, user: int) -> int:
        """Doppler bin of user ``user``'s pilot column, offset + user * band."""
        return self.offset + user * self.band

    @property
    def beta(self) -> int:
        """BEM order per user (resolved)."""
        return self.bem_order if self.bem_order > 0 else default_bem_order(self.nu_max_t)

    # -- validation -------------------------------------------------------------
    def violations(self) -> list[str]:
        """All violated invariants, one message each."""
        bad = []
        if min(self.m, self.n, self.num_users, self.zc_len) < 1:
            bad.append("m, n, num_users, zc_len must all be >= 1")
            return bad
        if self.num_users > self.m or self.num_users > self.n:
            bad.append(f"num_users={self.num_users} exceeds m={self.m} or n={self.n}")
            return bad
        # the checks below derive beta, the band and the grid from these floats
        bad += [f"{f.name} is NaN" for f in fields(self)
                if f.type == "float" and math.isnan(getattr(self, f.name))]
        if self.snr_db == -math.inf:
            bad.append("snr_db=-inf: the data SNR must be finite, or inf for no noise")
        elif self.snr_db < SNR_DB_FLOOR:
            bad.append(f"snr_db={self.snr_db:g} is below the floor of {SNR_DB_FLOOR:g} dB, "
                       "past which the receiver's noise terms overflow")
        if self.pilot_power_db == math.inf:
            bad.append("pilot_power_db=inf: the pilot power must be finite, "
                       "or -inf for no pilot")
        if self.nu_max_t < 0 or self.nu_max_t == math.inf:
            bad.append(f"nu_max_t={self.nu_max_t} must be finite and >= 0")
        if any(map(math.isinf, (self.cfo_range, self.cfo_step, self.cfo_tol, self.cfo_max))):
            bad.append("cfo_range, cfo_step, cfo_tol, cfo_max must all be finite")
        if bad:
            return bad
        if self.cp_len < 0 or self.theta_max < 0:
            bad.append("cp_len and theta_max must be >= 0")
        if self.channel_len_cap < 1:
            # the EVA profile clamps its tap delays into [0, channel_len_cap - 1]
            bad.append(f"channel_len_cap={self.channel_len_cap} must be >= 1")
        if self.cp_len < self.channel_len_cap + self.theta_max - 1:
            bad.append(
                "CP rule violated: need L_cp >= max L_ch + theta_max - 1, got "
                f"cp_len={self.cp_len} < {self.channel_len_cap} + {self.theta_max} - 1"
            )
        if self.cp_len - self.theta_max < 0:
            bad.append(
                f"cp_len - theta_max = {self.cp_len - self.theta_max} is negative"
            )
        if self.cp_len >= self.m * self.n:
            bad.append(f"cp_len={self.cp_len} must be < m*n={self.m * self.n}")
        if self.n_s < 2:
            # the Chebyshev basis maps the frame onto [-1, 1] over N_s - 1 samples
            bad.append(f"n_s = m*n + cp_len = {self.n_s} must be >= 2")
        if 2 * self.zc_len - 1 > self.m:
            bad.append(f"pilot span 2*zc_len-1={2 * self.zc_len - 1} exceeds m={self.m}")
        elif self.delay_lo < 0 or self.delay_hi > self.m - 1:
            bad.append(
                f"pilot delay span [{self.delay_lo}, {self.delay_hi}] "
                f"leaves the delay axis [0, {self.m - 1}]"
            )
        if math.gcd(self.zc_root, self.zc_len) != 1:
            bad.append(f"zc_root={self.zc_root} is not coprime with zc_len={self.zc_len}")
        if self.beta < bem_order_bound(self.nu_max_t) and self.beta < BEM_ORDER_CAP:
            bad.append(
                f"bem_order={self.beta} below the bound "
                f"ceil(2*nu_max_t + 1) = {bem_order_bound(self.nu_max_t)}"
            )
        if self.beta > self.n:
            # beta*L_p regressor columns against N*L_p pilot-region rows
            bad.append(f"bem_order={self.beta} exceeds the Doppler axis n={self.n}; "
                       "the BEM regressor would be underdetermined")
        if not 0.0 < self.threshold <= 1.0:
            bad.append(f"threshold={self.threshold} outside (0, 1]")
        if self.cfo_range <= 0 or self.cfo_step <= 0 or self.cfo_tol <= 0:
            bad.append("cfo_range, cfo_step, cfo_tol must all be > 0")
        elif self.band > 0 and self.cfo_range > self.band / 2:
            bad.append(
                f"cfo_range={self.cfo_range} exceeds the alias-free half band "
                f"{self.band / 2}"
            )
        if self.cfo_max < 0:
            bad.append("cfo_max must be >= 0")
        if self.band > 0 and not 0 <= self.offset < self.band:
            bad.append(
                f"pilot_offset={self.offset} outside the user band [0, {self.band})"
            )
        if self.channel_model not in CHANNEL_MODELS:
            bad.append(f"channel_model={self.channel_model!r} not one of {CHANNEL_MODELS}")
        if not 0 <= self.rng_seed < 2 ** 64:
            bad.append("rng_seed must be a 64-bit non-negative integer")
        return bad

    def validate(self) -> "SystemConfig":
        bad = self.violations()
        if bad:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(bad))
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(SystemConfig)}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def coerce(kind: str, raw: str, name: str):
    """Typed value of ``raw`` for a field annotated ``kind``: int, float
    (accepts "inf"), bool, str, or a comma-separated tuple[float, ...]."""
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple[float, ...]":
            return tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {kind} from {raw!r} for key {name!r}") from exc
    if kind == "bool":
        if raw.lower() in _TRUE + _FALSE:
            return raw.lower() in _TRUE
        raise ConfigError(f"cannot parse bool from {raw!r} for key {name!r}")
    return raw


def parse_lines(text: str) -> list[tuple[int, str, str]]:
    """(line number, key, raw value) of each ``key = value`` line; ``#``
    starts a comment and blank lines are skipped."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        entries.append((lineno, key, raw))
    return entries


def parse_config_text(text: str) -> SystemConfig:
    """Parse a flat ``key = value`` config (``#`` starts a comment)."""
    values = {}
    for lineno, key, raw in parse_lines(text):
        if key not in _FIELD_TYPES:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(sorted(_FIELD_TYPES))
            )
        values[key] = coerce(_FIELD_TYPES[key], raw, key)
    return SystemConfig(**values).validate()


def load_config(path) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(cfg: SystemConfig, overrides: dict[str, str]) -> SystemConfig:
    """Apply ``{field: raw-value}`` overrides and re-validate."""
    updates = {}
    for key, raw in overrides.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: " + ", ".join(sorted(_FIELD_TYPES))
            )
        updates[key] = coerce(_FIELD_TYPES[key], str(raw), key)
    return replace(cfg, **updates).validate()


def echo_config(cfg: SystemConfig) -> str:
    """Full config as reloadable ``key = value`` text, resolved values in comments."""
    resolved = {"pilot_anchor": cfg.anchor, "pilot_offset": cfg.offset, "bem_order": cfg.beta}
    lines = []
    for f in fields(SystemConfig):
        line = f"{f.name} = {getattr(cfg, f.name)}"
        if f.name in resolved and getattr(cfg, f.name) != resolved[f.name]:
            line += f"  # resolved: {resolved[f.name]}"
        lines.append(line)
    lines.append(f"# derived: n_s = {cfg.n_s}, cp_rem = {cfg.cp_rem}, band = {cfg.band}")
    return "\n".join(lines) + "\n"

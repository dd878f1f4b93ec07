"""Scenario configuration and experiment plans: keys, types and
validation only.

All user-facing powers are specified on log scales (transmit power in dB
relative to 1 W, noise in dBm) and read in a single linear unit system
(watts) through derived properties, which no field stores.

This module owns every key's type: `__post_init__` types each field by
the kind its annotation names in `_KINDS`, from `Text` (INI
files, overrides) or a Python/JSON value (manifests, presets, direct
construction, `dataclasses.replace`) alike.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np


class ConfigError(ValueError):
    """A configuration value violates one of the documented constraints."""


class Option(Enum):
    """Per-AP processing sequence.

    OPTION1: remove the previous APs' contribution, rotate the residual into
             its eigenbasis, then quantize (inter-AP + intra-AP de-correlation).
    OPTION2: rotate the raw received vector into its own eigenbasis, quantize,
             then remove the predictable part (intra-AP de-correlation only).
    OPTION3: quantize the raw received vector element-wise, then remove the
             predictable part (no de-correlation before quantization).
    NOQUANT: OPTION1 signal path with the quantizer replaced by identity.
    """

    OPTION1 = "option1"
    OPTION2 = "option2"
    OPTION3 = "option3"
    NOQUANT = "noquant"

    @property
    def mode(self) -> int:
        """Integer tag used by the numeric kernels (0 = lossless)."""
        return {"noquant": 0, "option1": 1, "option2": 2, "option3": 3}[self.value]

    @property
    def quantized(self) -> bool:
        return self is not Option.NOQUANT


class Text(str):
    """A value as written in an INI file or an override, which its key's
    kind parses; a plain str is a Python/JSON value, only ever a name."""


def _number(key: str, raw, kind=int):
    """raw as a kind, int or float. An int is read exactly; an int key
    also takes an integral float, or float form such as "1e3". A float
    key takes finite values only: nan and +-inf are not numbers here."""
    x = raw
    if isinstance(raw, Text):
        for parse in (int, float):
            try:
                x = parse(raw)
                break
            except ValueError:
                x = None
    try:
        if isinstance(x, numbers.Real) and not isinstance(x, bool):
            y = kind(x)
            if (y == x) if kind is int else math.isfinite(y):
                return y
    except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
        pass
    raise ConfigError(f"{key} = {raw!r} is not "
                      + ("an integer" if kind is int else "a number"))


def _name(key: str, raw) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{key} = {raw!r} is not a string")
    return raw.strip().lower()


def _option(key: str, raw) -> Option:
    try:  # a ConfigError of _name is a ValueError too
        return raw if isinstance(raw, Option) else Option(_name(key, raw))
    except ValueError:
        raise ConfigError(f"{key} = {raw!r} is not one of "
                          f"{[o.value for o in Option]}") from None


def _tuple_of(one):
    """A tuple of `one`'s: of comma-separated Text, a sequence, or one."""
    def kind(key: str, raw) -> tuple:
        if isinstance(raw, Text):
            raw = [Text(x.strip()) for x in raw.split(",") if x.strip()]
        elif not isinstance(raw, (tuple, list, range, np.ndarray)):
            raw = (raw,)
        return tuple(one(key, x) for x in raw)
    return kind


# Each settable field's kind, keyed by its annotation (a string under
# `from __future__ import annotations`): how a raw value becomes its value.
_KINDS = {
    "int": _number,
    "float": lambda key, raw: _number(key, raw, float),
    "str": _name,
    "int | None": lambda key, raw: None if raw is None else _number(key, raw),
    "tuple[int, ...]": _tuple_of(_number),
    "tuple[float, ...]": _tuple_of(lambda key, raw: _number(key, raw, float)),
    "tuple[Option, ...]": _tuple_of(_option),
}


def _coerce_fields(obj):
    """Type each of obj's fields in place."""
    for f in fields(obj):
        setattr(obj, f.name, _KINDS[f.type](f.name, getattr(obj, f.name)))


# Widest quantizer, in bits: float64 cannot tell the 2^b cells of
# (x + gamma) / delta apart beyond about 2^52.
MAX_BITS = 52
# Largest p/sigma2 of a transmit power, 220 dB: some 15 dB short of where
# p H H^H swamps sigma2 I in float64 and the recursion starts to fail.
MAX_SNR = 1e22


def _need(cond, msg: str):
    if not cond:
        raise ConfigError(msg)


def check_power(key: str, p_db: float, sigma2: float):
    """Finite, nonzero watts p and p/sigma2 <= MAX_SNR, or a ConfigError."""
    try:
        p = 10.0 ** (p_db / 10.0)
    except OverflowError:
        p = math.inf
    bad = f"{key} = {p_db:g} is out of range: "
    _need(0 < p < math.inf, bad + "p in watts must be positive and finite")
    _need(p <= MAX_SNR * sigma2, bad + f"p/sigma2 > MAX_SNR = {MAX_SNR:g}")


@dataclass
class NetworkConfig:
    """Full scenario description for one simulated network.

    Fields hold the values as set. Derived values (`p`, `sigma2` in watts,
    per-AP `b_l`, `report_bits`) are computed on read, also after `replace`.
    """

    L: int = 5                      # APs in the chain
    N: int = 4                      # antennas per AP
    K: int = 10                     # users
    p_db: float = -10.0             # per-user transmit power, dB re 1 W
    noise_dbm: float = -85.0        # receiver noise power
    bits: tuple[int, ...] = (3,)    # quantizer bits: one for every AP, or L
    alpha: float = 3.0              # dynamic range = alpha * input std
    area_side: float = 500.0        # square simulation area side, meters
    bandwidth_hz: float = 100e6     # signal bandwidth B
    coherence_bw_hz: float = 200e3  # coherence bandwidth B_c
    coherence_time_s: float = 1e-3  # coherence time T_c
    tau_d: int = 190                # uplink data samples per coherence block
    b_c: int = 8                    # combining-coefficient bits per real part
    b_e: int | None = None          # covariance-report bits per block
    corr_model: str = "uncorrelated"  # "uncorrelated" | "exponential"
    rho: float = 0.5                # exponential antenna-correlation factor
    d_min: float = 1.0              # AP-user distance floor, meters

    def __post_init__(self):
        _coerce_fields(self)
        self.validate()

    @property
    def p(self) -> float:
        return 10.0 ** (self.p_db / 10.0)

    @property
    def sigma2(self) -> float:
        return 10.0 ** (self.noise_dbm / 10.0) * 1e-3

    @property
    def report_bits(self) -> int:
        """b_e, or by default a full complex K x K report at b_c bits."""
        return 2 * self.K * self.K * self.b_c if self.b_e is None else self.b_e

    @property
    def r(self) -> int:
        """Retained streams per AP."""
        return min(self.N, self.K)

    @property
    def tau_c(self) -> float:
        """Samples per coherence block."""
        return self.coherence_time_s * self.coherence_bw_hz

    @property
    def b_l(self) -> np.ndarray:
        """Quantizer bits of each of the L APs."""
        return np.full(self.L, self.bits, dtype=np.int64)

    def validate(self):
        _need(self.L >= 1, "L >= 1")
        _need(self.N >= 1, "N >= 1")
        _need(self.K >= 1, "K >= 1")
        try:
            ok = 0 < self.sigma2 < math.inf
        except OverflowError:
            ok = False
        _need(ok, f"noise_dbm = {self.noise_dbm:g} is out of range: "
              "sigma2 in watts must be positive and finite")
        check_power("p_db", self.p_db, self.sigma2)
        _need(self.alpha > 0, "alpha > 0")
        _need(len(self.bits) in (1, self.L),
              f"bits must have length 1 or L={self.L}")
        _need(all(b >= 1 for b in self.bits), "b_l >= 1")
        _need(all(b <= MAX_BITS for b in self.bits),
              f"bits values <= MAX_BITS = {MAX_BITS}")
        _need(self.area_side > 0, "area_side > 0")
        _need(self.d_min > 0, "d_min > 0")
        _need(self.bandwidth_hz > 0, "bandwidth_hz > 0")
        _need(self.coherence_bw_hz > 0, "coherence_bw_hz > 0")
        _need(self.coherence_time_s > 0, "coherence_time_s > 0")
        _need(self.tau_d >= 0, "tau_d >= 0")
        _need(self.tau_d <= self.tau_c + 1e-9,
              f"tau_d <= T_c*B_c (tau_d={self.tau_d}, tau_c={self.tau_c:g})")
        _need(self.b_c >= 1, "b_c >= 1")
        _need(self.report_bits >= 0, "b_e >= 0")
        _need(self.corr_model in ("uncorrelated", "exponential"),
              f"corr_model must be 'uncorrelated' or 'exponential', "
              f"got {self.corr_model!r}")
        _need(0.0 <= self.rho < 1.0, "rho in [0, 1)")
        if self.K <= self.N:
            warnings.warn(
                f"K={self.K} <= N={self.N}: outside the intended K > N regime; "
                "results remain valid but streams are not reduced",
                UserWarning, stacklevel=2)

    def as_dict(self) -> dict:
        return {**_settable_values(self), "derived": {
            "p_watt": self.p,
            "sigma2_watt": self.sigma2,
            "r": self.r,
            "tau_c": self.tau_c,
            "b_e": self.report_bits,
            "b_l": self.b_l.tolist(),
        }}


NOISE_KINDS = ("noise_cdf", "noise_cov")
# Fewest unclipped samples per quantizer pair from which the noise
# statistics certify the uniform law (quantizer.validate_noise_statistics).
MIN_NOISE_SAMPLES = 10_000
VALID_KINDS = NOISE_KINDS + ("nmse_vs_bits", "ber_vs_power", "bitrate_table")


@dataclass
class ExperimentPlan:
    """What to sweep, how many trials, and which options to compare."""

    kind: str = "nmse_vs_bits"
    bits_sweep: tuple[int, ...] = tuple(range(1, 9))
    power_sweep_db: tuple[float, ...] = tuple(range(-20, 1, 2))
    n_placements: int = 100
    n_blocks: int = 10
    n_samples: int = 100
    options: tuple[Option, ...] = (Option.OPTION1, Option.OPTION2,
                                   Option.OPTION3, Option.NOQUANT)
    master_seed: int = 1

    def __post_init__(self):
        _coerce_fields(self)
        self.validate()

    def validate(self):
        _need(self.kind in VALID_KINDS, f"unknown experiment kind "
              f"{self.kind!r}; expected one of {VALID_KINDS}")
        _need(self.n_placements >= 1, "n_placements >= 1")
        _need(self.n_blocks >= 1, "n_blocks >= 1")
        _need(self.n_samples >= 1, "n_samples >= 1")
        _need(self.master_seed >= 0, "master_seed >= 0")
        _need(len(self.options) >= 1, "options non-empty")
        _need(len(set(self.options)) == len(self.options), "options unique")
        if self.kind in NOISE_KINDS:
            _need(len(self.options) == 1 and self.options[0].quantized,
                  f"{self.kind} takes exactly one quantized option; set "
                  f"[plan] options = option1 (or option2, option3)")
            total = self.n_samples * self.n_blocks * self.n_placements
            _need(total >= MIN_NOISE_SAMPLES,
                  f"{self.kind} needs n_samples * n_blocks * n_placements "
                  f">= {MIN_NOISE_SAMPLES}, got {total}")
        if self.kind in ("nmse_vs_bits", "bitrate_table"):
            _need(len(self.bits_sweep) >= 1, "bits_sweep non-empty")
            _need(all(b >= 1 for b in self.bits_sweep),
                  "bits_sweep values >= 1")
            _need(all(b <= MAX_BITS for b in self.bits_sweep),
                  f"bits_sweep values <= MAX_BITS = {MAX_BITS}")
            _need(list(self.bits_sweep) == sorted(self.bits_sweep),
                  "bits_sweep sorted")
        if self.kind == "ber_vs_power":
            _need(len(self.power_sweep_db) >= 1, "power_sweep_db non-empty")
            _need(list(self.power_sweep_db) == sorted(self.power_sweep_db),
                  "power_sweep_db sorted")

    def as_dict(self) -> dict:
        return _settable_values(self)


def _settable_values(obj) -> dict:
    """A config dataclass's fields by name, as JSON values: tuples
    become lists and options their names."""
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v.value if isinstance(v, Option) else v


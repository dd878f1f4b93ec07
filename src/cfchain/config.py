"""Scenario configuration and experiment plans.

All user-facing powers are specified on log scales (transmit power in dB
relative to 1 W, noise in dBm) and converted to a single linear unit
system (watts) when the config object is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
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

    @classmethod
    def parse(cls, text: str) -> "Option":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(
                f"unknown option {text!r}; expected one of "
                f"{[o.value for o in cls]}"
            ) from None


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


@dataclass
class NetworkConfig:
    """Full scenario description for one simulated network.

    Power fields `p` and `sigma2` (linear watts) are derived in
    ``__post_init__`` from `p_db` (dB re 1 W) and `noise_dbm`.
    """

    L: int = 5                      # APs in the chain
    N: int = 4                      # antennas per AP
    K: int = 10                     # users
    p_db: float = -10.0             # per-user transmit power, dB re 1 W
    noise_dbm: float = -85.0        # receiver noise power
    bits: tuple | int = 3           # quantizer bits per AP, scalar or length L
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
    seed: int = 1
    d_min: float = 1.0              # AP-user distance floor, meters

    p: float = field(init=False)
    sigma2: float = field(init=False)

    def __post_init__(self):
        if np.isscalar(self.bits):
            self.bits = (int(self.bits),) * self.L
        self.bits = tuple(int(b) for b in self.bits)
        if self.b_e is None:
            # full complex covariance report at combiner precision
            self.b_e = 2 * self.K * self.K * self.b_c
        self.p = db_to_linear(self.p_db)
        self.sigma2 = dbm_to_watt(self.noise_dbm)
        self.validate()

    @property
    def r(self) -> int:
        """Retained streams per AP (never stored, always derived)."""
        return min(self.N, self.K)

    @property
    def tau_c(self) -> float:
        """Samples per coherence block."""
        return self.coherence_time_s * self.coherence_bw_hz

    @property
    def b_l(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=np.int64)

    def validate(self):
        def need(cond, msg):
            if not cond:
                raise ConfigError(msg)

        need(self.L >= 1, "L >= 1")
        need(self.N >= 1, "N >= 1")
        need(self.K >= 1, "K >= 1")
        need(self.p > 0, "p > 0")
        need(self.sigma2 > 0, "sigma2 > 0")
        need(self.alpha > 0, "alpha > 0")
        need(len(self.bits) == self.L, f"bits must have length L={self.L}")
        need(all(b >= 1 for b in self.bits), "b_l >= 1")
        need(self.area_side > 0, "area_side > 0")
        need(self.d_min > 0, "d_min > 0")
        need(self.tau_d >= 0, "tau_d >= 0")
        need(self.tau_d <= self.tau_c + 1e-9,
             f"tau_d <= T_c*B_c (tau_d={self.tau_d}, tau_c={self.tau_c:g})")
        need(self.b_c >= 1, "b_c >= 1")
        need(self.b_e >= 0, "b_e >= 0")
        need(self.corr_model in ("uncorrelated", "exponential"),
             f"corr_model must be 'uncorrelated' or 'exponential', "
             f"got {self.corr_model!r}")
        need(0.0 <= self.rho < 1.0, "rho in [0, 1)")
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
            "b_e": self.b_e,
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
    bits_sweep: tuple = tuple(range(1, 9))
    power_sweep_db: tuple = tuple(range(-20, 1, 2))
    n_placements: int = 100
    n_blocks: int = 10
    n_samples: int = 100
    options: tuple = (Option.OPTION1, Option.OPTION2, Option.OPTION3,
                      Option.NOQUANT)
    master_seed: int = 1

    def __post_init__(self):
        if isinstance(self.kind, str):
            self.kind = self.kind.strip().lower()
        if self.kind not in VALID_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {VALID_KINDS}")
        self.options = tuple(
            Option.parse(o) if isinstance(o, str) else o for o in self.options)
        self.bits_sweep = tuple(int(b) for b in self.bits_sweep)
        self.power_sweep_db = tuple(float(v) for v in self.power_sweep_db)
        self.validate()

    def validate(self):
        def need(cond, msg):
            if not cond:
                raise ConfigError(msg)

        need(self.n_placements >= 1, "n_placements >= 1")
        need(self.n_blocks >= 1, "n_blocks >= 1")
        need(self.n_samples >= 1, "n_samples >= 1")
        need(len(self.options) >= 1, "options non-empty")
        need(len(set(self.options)) == len(self.options), "options unique")
        if self.kind in NOISE_KINDS:
            need(len(self.options) == 1 and self.options[0].quantized,
                 f"{self.kind} takes exactly one quantized option; set "
                 f"[plan] options = option1 (or option2, option3)")
            total = self.n_samples * self.n_blocks * self.n_placements
            need(total >= MIN_NOISE_SAMPLES,
                 f"{self.kind} needs n_samples * n_blocks * n_placements "
                 f">= {MIN_NOISE_SAMPLES}, got {total}")
        if self.kind in ("nmse_vs_bits", "bitrate_table"):
            need(len(self.bits_sweep) >= 1, "bits_sweep non-empty")
            need(all(b >= 1 for b in self.bits_sweep), "bits_sweep values >= 1")
            need(list(self.bits_sweep) == sorted(self.bits_sweep),
                 "bits_sweep sorted")
        if self.kind == "ber_vs_power":
            need(len(self.power_sweep_db) >= 1, "power_sweep_db non-empty")
            need(list(self.power_sweep_db) == sorted(self.power_sweep_db),
                 "power_sweep_db sorted")

    def as_dict(self) -> dict:
        return _settable_values(self)


def _settable_values(obj) -> dict:
    """A config dataclass's init fields by name, as JSON values: tuples
    become lists and options their names."""
    return {f.name: _plain(getattr(obj, f.name))
            for f in fields(obj) if f.init}


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v.value if isinstance(v, Option) else v


def _check_alpha_bits(alpha: float, b: int):
    """The dynamic-range closed form needs alpha^2 < 3*4^b; checked where
    a config meets its plan (runio.build_config) and by the calibration."""
    if alpha ** 2 >= 3.0 * 4.0 ** b:
        raise ConfigError(
            f"alpha^2 < 3*4^b violated (alpha={alpha}, b={b}): the dynamic "
            "range calibration has no finite solution")

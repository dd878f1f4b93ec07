"""Performance and fronthaul-cost metrics.

NMSE is normalized per user by the empirical signal energy, so the
all-zero estimator scores exactly 1. A `Cell` accumulates the sums behind
one metric value; cells are pure folds and merge like monoids, which lets
parallel workers keep private copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig


def nmse_sums(s: np.ndarray, s_hat: np.ndarray):
    """Per-user squared-error and signal-energy sums over the sample axis.

    s is (K, S); s_hat is (..., K, S). Returns ((..., K), (K,)).
    """
    return (np.sum(np.abs(s - s_hat) ** 2, axis=-1),
            np.sum(np.abs(s) ** 2, axis=-1))


def ber_sums(bits: np.ndarray, s_hat: np.ndarray):
    """Per-user bit errors of sign(Re(s_hat)) against bits {0,1}, and bits
    sent. bits is (K, S); s_hat is (..., K, S). Returns ((..., K), (K,)).
    """
    errors = ((np.real(s_hat) > 0) != bits).sum(axis=-1)
    return errors, np.full(bits.shape[0], bits.shape[-1])


@dataclass
class Cell:
    """One (option, axis point) aggregate: error sums over energy sums.

    a/b are the per-user sums of `nmse_sums` or `ber_sums`. A sweep's cell
    also keeps one metric value per placement for `mean_halfwidth`.
    """

    a: np.ndarray                 # per-user error sums (or bit errors)
    b: np.ndarray                 # per-user energy sums (or bits sent)
    count: int = 0                # accumulated samples
    clipped: int = 0              # clipped real components
    placement_values: np.ndarray | None = None  # per-placement metric

    @classmethod
    def zeros(cls, K: int, n_placements: int = 0) -> "Cell":
        return cls(a=np.zeros(K), b=np.zeros(K),
                   placement_values=np.full(n_placements, np.nan))

    def merge(self, other: "Cell") -> "Cell":
        self.a += other.a
        self.b += other.b
        self.count += other.count
        self.clipped += other.clipped
        return self

    def per_user(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.b > 0, self.a / self.b, np.nan)

    def value(self, metric: str) -> float:
        if metric == "nmse":
            return float(np.mean(self.per_user()))
        return float(self.a.sum() / self.b.sum())

    def halfwidth(self) -> float:
        return mean_halfwidth(self.placement_values)[1]


def mean_halfwidth(values: np.ndarray) -> tuple[float, float]:
    """Mean and 95 % half-width 1.96 std(ddof=1) / sqrt(n) over the values
    that are not NaN; the half-width is 0.0 when fewer than two remain."""
    v = values[~np.isnan(values)]
    if v.size < 2:
        return float(v.mean()), 0.0
    return float(v.mean()), float(1.96 * v.std(ddof=1) / np.sqrt(v.size))


def multiplier_width(b_c: int, b_l: int, r: int) -> tuple[int, int]:
    """Bit growth of the combining inner product.

    Returns (per-element accumulator width, total per-estimate width):
    a b_c x b_l product needs b_c + b_l bits, and summing r complex
    products adds 2r - 1 carry bits; the complex estimate carries two such
    accumulators.
    """
    width = b_c + b_l + 2 * r - 1
    return width, 2 * width


def fronthaul_bitrate(cfg: NetworkConfig, b_l: int) -> tuple[float, int]:
    """Per-link fronthaul rate in bits/second, plus the estimate width b_s.

    Every coherence block ships the covariance report (b_e bits) and
    tau_d refined estimates of K users at b_s bits each; N_CB = B/B_c
    blocks fit in one coherence time.
    """
    width, b_s = multiplier_width(cfg.b_c, b_l, cfg.r)
    n_cb = cfg.bandwidth_hz / cfg.coherence_bw_hz
    rate = n_cb * (cfg.report_bits + 2.0 * cfg.tau_d * cfg.K * width) \
        / cfg.coherence_time_s
    return rate, b_s

"""Network geometry, large-scale fading, and channel generation.

APs sit on a deterministic uniform grid over a square area; users are
dropped uniformly at random with a minimum-distance floor so the path-loss
law stays in its valid domain. Small-scale fading is correlated Rayleigh:
each AP-user channel vector is a zero-mean circularly symmetric complex
Gaussian with a Hermitian PSD spatial covariance whose trace equals
N times the large-scale gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, NetworkConfig

PATHLOSS_INTERCEPT_DB = -30.5
PATHLOSS_SLOPE_DB_PER_DECADE = -36.7
PLACEMENT_DRAWS = 10_000  # tries per user to clear the d_min floor


@dataclass
class Placement:
    """User coordinates (meters) and the AP-user distance matrix."""

    user_positions: np.ndarray  # (K, 2)
    distances: np.ndarray       # (L, K), floored at d_min


@dataclass
class ChannelRealization:
    """One coherence block's channels and their large-scale gains.

    The spatial covariance of H[l, :, k] is
    build_spatial_covariance(cfg, beta[l, k]).
    """

    H: np.ndarray     # (L, N, K) complex, column k of H[l] is the k-th user
    beta: np.ndarray  # (L, K) large-scale gains, linear


def pathloss_db(d) -> np.ndarray | float:
    """Urban-microcell path loss: -30.5 - 36.7*log10(d / 1 m).

    The constants assume a 2 GHz carrier; the carrier frequency enters no
    other formula, so it is not a config key.

    Raises ConfigError for non-positive distances.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ConfigError("pathloss_db requires d > 0")
    out = PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE_DB_PER_DECADE * np.log10(d)
    return out if out.ndim else float(out)


def ap_grid(L: int, area_side: float) -> np.ndarray:
    """Deterministic uniform grid of L points over the square, row-major.

    The grid is ceil(sqrt(L)) columns wide; points sit at cell centers, so
    L=1 lands exactly on the area centroid.
    """
    ncols = int(np.ceil(np.sqrt(L)))
    nrows = int(np.ceil(L / ncols))
    pts = []
    for i in range(L):
        col, row = i % ncols, i // ncols
        pts.append(((col + 0.5) * area_side / ncols,
                    (row + 0.5) * area_side / nrows))
    return np.asarray(pts, dtype=float)


def generate_placement(cfg: NetworkConfig, rng: np.random.Generator) -> Placement:
    """Grid APs, uniform i.i.d. users, distance floor enforced by resampling."""
    aps = ap_grid(cfg.L, cfg.area_side)
    users = np.empty((cfg.K, 2), dtype=float)
    for k in range(cfg.K):
        for _ in range(PLACEMENT_DRAWS):
            pos = rng.uniform(0.0, cfg.area_side, size=2)
            if np.min(np.linalg.norm(aps - pos, axis=1)) >= cfg.d_min:
                users[k] = pos
                break
        else:
            raise ConfigError(
                f"user {k}: none of {PLACEMENT_DRAWS} draws clears d_min = "
                f"{cfg.d_min:g} m from every AP in a square of area_side = "
                f"{cfg.area_side:g} m")
    dist = np.linalg.norm(aps[:, None, :] - users[None, :, :], axis=2)
    dist = np.maximum(dist, cfg.d_min)
    return Placement(user_positions=users, distances=dist)


def build_spatial_covariance(cfg: NetworkConfig, beta_kl: float) -> np.ndarray:
    """N x N spatial covariance with trace = N * beta_kl.

    "uncorrelated" gives beta*I; "exponential" gives beta * rho^|i-j|.
    """
    if beta_kl <= 0:
        raise ConfigError("beta_kl > 0 required")
    if cfg.corr_model == "uncorrelated":
        return beta_kl * np.eye(cfg.N, dtype=complex)
    idx = np.arange(cfg.N)
    T = cfg.rho ** np.abs(np.subtract.outer(idx, idx))
    return beta_kl * T.astype(complex)


def _correlation_sqrt(cfg: NetworkConfig) -> np.ndarray:
    """Real symmetric square root of the spatial covariance at beta = 1."""
    T = build_spatial_covariance(cfg, 1.0).real
    if cfg.corr_model == "uncorrelated":
        return T  # the identity is its own square root
    vals, vecs = np.linalg.eigh(T)
    if np.min(vals) < -1e-10 * np.max(vals):
        raise np.linalg.LinAlgError("antenna correlation matrix is not PSD")
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def draw_channel(cfg: NetworkConfig, placement: Placement,
                 rng: np.random.Generator) -> ChannelRealization:
    """One correlated Rayleigh realization per AP-user pair.

    The same realization is meant to be reused for every sample of one
    coherence block; callers draw again for the next block.
    """
    beta = 10.0 ** (pathloss_db(placement.distances) / 10.0)  # (L, K)
    sqrtT = _correlation_sqrt(cfg)
    w = crandn(rng, cfg.L, cfg.N, cfg.K)
    H = np.sqrt(beta)[:, None, :] * np.einsum("nm,lmk->lnk", sqrtT, w)
    return ChannelRealization(H=H, beta=beta)


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian draws.

    The real parts are drawn before the imaginary parts, each straight into
    one complex array, which is then scaled by 1/sqrt(2) in place: the
    values are those of (a + 1j*b) / sqrt(2), bit for bit.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z.view(float)[...] *= 1.0 / np.sqrt(2.0)
    return z

"""Non-subtractive dithered uniform quantization of complex vectors,
stated once here.

Each complex stream gets a pair of identical real mid-rise quantizers:
2^b levels at the centres of the cells of width delta = 2*gamma/2^b over
[-gamma, gamma]; an input beyond +-gamma saturates at the outer level and
counts as clipped, and gamma = delta = 0 forwards a constant zero that
never clips. The quantizers run in units of their own step
(`quantize_in_steps`): with x = input/delta and M = 2^(b-1) = gamma/delta,
the level is delta * (clamp(floor(x), -M, M - 1) + 1/2), and |x| > M is
clipped. That is the gamma-domain rule delta * (floor((input + gamma) /
delta) + 1/2) - gamma, clamped to +-(gamma - delta/2), without a
per-stream gamma or delta in the per-sample work: the kernel folds 1/delta
into the projections and delta into the combiners (`step_units`).
gamma/delta is exactly 2^(b-1), since delta = 2*gamma/2^b only shifts
gamma's binary exponent, so one M per AP serves all of its streams. A
dither uniform over one step per real component is added before the
quantizer and stays in the forwarded signal; it is drawn once per (block,
option) at unit scale (`draw_dither`), the quantizer's own scale, and
`kernels.evaluate_chain` adds it as drawn. The dynamic range counts the
dither's own variance into the input, which gives the closed form

    gamma_i = sqrt( alpha^2 * (1 - alpha^2 / (3*4^b))^-1 * var_i / 2 )

with var_i = E{|input_i|^2} (`calibrate_dynamic_range`), finite only for
alpha^2 < 3*4^b (`check_alpha_bits`). Dither and quantization noise are
each uniform over one step per real component, delta^2/6 per complex
stream, so the downstream estimator models them as diag(delta^2/3)
(`noise_covariance`); `uniform_cdf` states the uniform law, which
`validate_noise_statistics` checks against realized noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_BITS, MIN_NOISE_SAMPLES, ConfigError


class InsufficientSamplesError(ValueError):
    """Too few samples to certify the quantization-noise statistics."""


@dataclass
class StatReport:
    """Empirical quantization-noise statistics from unclipped operation."""

    HEADER = ("pair", "n_unclipped", "ks_re", "ks_im", "corr_input",
              "offdiag_ratio", "eig_vs_diag_rel")
    CDF_HEADER = ("value", "cdf_re", "cdf_im", "cdf_uniform")
    COV_HEADER = ("index", "diagonal", "eigenvalue")

    n_unclipped: np.ndarray      # (r,) per pair, min over re/im
    ks_re: np.ndarray            # (r,) KS distance of Re(eta_i) vs uniform
    ks_im: np.ndarray            # (r,)
    diag: np.ndarray             # (r,) covariance diagonal, descending
    eig: np.ndarray              # (r,) covariance eigenvalues, descending
    offdiag_ratio: float         # max |off-diagonal| / mean diagonal
    eig_vs_diag_rel: float       # sorted eigenvalues vs sorted diagonal
    corr_input: np.ndarray       # (r,) |corr(eta_i, pre-dither input_i)|
    cdfs: list | None = None     # per pair, CDF_HEADER columns on a grid

    def rows(self):
        """Per-pair CSV rows, in HEADER order."""
        for i in range(self.ks_re.size):
            yield [i, int(self.n_unclipped[i]), float(self.ks_re[i]),
                   float(self.ks_im[i]), float(self.corr_input[i]),
                   self.offdiag_ratio, self.eig_vs_diag_rel]


def check_alpha_bits(alpha: float, b: int):
    """The dynamic-range closed form needs alpha^2 < 3*4^b; checked where
    a config meets its plan (runio.build_config) and by the calibration."""
    if alpha ** 2 >= 3.0 * 4.0 ** b:
        raise ConfigError(
            f"alpha^2 < 3*4^b violated (alpha={alpha}, b={b}): the dynamic "
            "range calibration has no finite solution")


def calibrate_dynamic_range(input_var, alpha: float,
                            b) -> tuple[np.ndarray, np.ndarray]:
    """Dynamic ranges and steps (gamma, delta), each (..., r), from input
    variances E{|input_i|^2} (..., r): delta is exactly 2*gamma/2^b, and a
    zero variance gives gamma = delta = 0. b is an integer or an integer
    array of the leading shape (...), one bit width per r streams.
    """
    input_var = np.atleast_1d(np.asarray(input_var, dtype=float))
    if (input_var < 0).any():
        raise ConfigError("input_var >= 0 required")
    b = np.asarray(b, dtype=np.int64)
    if (b < 1).any():
        raise ConfigError("b_l >= 1")
    if (b > MAX_BITS).any():
        raise ConfigError(f"b_l <= MAX_BITS = {MAX_BITS}")
    check_alpha_bits(alpha, int(b.min()))  # the bound tightens as b falls
    corr = 1.0 - alpha ** 2 / (3.0 * 4.0 ** b[..., None])
    gamma = np.sqrt(alpha ** 2 / corr * input_var / 2.0)
    delta = 2.0 * gamma / 2.0 ** b[..., None]
    return gamma, delta


def step_units(gamma: np.ndarray,
               delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1/delta (..., L, r), levels (..., L)): what a chain's quantizers
    need to run in units of their steps.

    levels is gamma/delta = 2^(b-1), half of each AP's level count, read
    once per AP as max gamma / max delta, since an AP's streams share b.
    A dead stream (delta = 0) gets 1/delta := 0, and an AP whose streams
    are all dead gets levels 1, which no unit dither reaches.
    """
    inv = np.divide(1.0, delta, out=np.zeros_like(delta), where=delta > 0)
    g, d = gamma.max(axis=-1), delta.max(axis=-1)
    return inv, np.divide(g, d, out=np.ones_like(d), where=d > 0)


def quantize_in_steps(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Quantize x (..., r, S) in place, in units of its step; returns the
    clipped real components per leading entry (...).

    x is the dithered input over delta; levels (...) is 2^(b-1), from
    `step_units`. Each real component with |x| > levels is clipped and
    becomes clamp(floor(x), -levels, levels - 1) + 1/2.
    """
    v = x.view(float)
    m = levels[..., None, None]
    clipped = np.count_nonzero(np.abs(v) > m, axis=(-2, -1))
    np.floor(v, out=v)
    np.clip(v, -m, m - 1.0, out=v)
    v += 0.5
    return clipped


def noise_covariance(delta) -> np.ndarray:
    """Modelled dither-plus-quantization noise covariance, diag(delta^2/3).

    delta is (..., r); the result is (..., r, r).
    """
    delta = np.asarray(delta, dtype=float)
    return (delta ** 2 / 3.0)[..., None] * np.eye(delta.shape[-1])


def draw_dither(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-step dither: i.i.d. uniform on [-1/2, 1/2] per real component.

    The real parts are drawn before the imaginary parts, each straight into
    one complex array: the values are those of u + 1j*v, bit for bit. The
    chain kernel adds it as drawn to inputs in units of their steps.
    """
    D = np.empty(shape, dtype=complex)
    D.real = rng.uniform(-0.5, 0.5, shape)
    D.imag = rng.uniform(-0.5, 0.5, shape)
    return D


def uniform_cdf(x: np.ndarray, delta: float) -> np.ndarray:
    """CDF at x of the uniform law on [-delta/2, delta/2]; 0 if delta = 0."""
    if delta <= 0:
        return np.zeros_like(x)
    return np.clip((x + delta / 2.0) / delta, 0.0, 1.0)


def ks_uniform(x: np.ndarray, delta: float) -> float:
    """Kolmogorov-Smirnov distance of an ascending sample x_(i) from the
    uniform law, in closed form with F the `uniform_cdf`:

        D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n)
    """
    n = x.size
    F = uniform_cdf(x, delta)
    return float(max((np.arange(1.0, n + 1) / n - F).max(),
                     (F - np.arange(0.0, n) / n).max()))


def validate_noise_statistics(eta: np.ndarray, pre_input: np.ndarray,
                              delta: np.ndarray,
                              cdf_grid: np.ndarray | None = None
                              ) -> StatReport:
    """Check the dither theory against realized quantization noise.

    eta, pre_input: (r, n) arrays of noise realizations and the matching
    pre-dither quantizer inputs; delta: (r,) the quantizers' step sizes.
    Clipped events are identified by |component of eta| > delta/2 and
    excluded, since the uniform law only holds for in-range operation.
    Each pair's unclipped parts are sorted once, for the KS distances and,
    given probabilities cdf_grid, for `cdfs`: the real part's quantiles
    and, at those values, the imaginary part's and the uniform CDF.
    """
    eta, pre = np.asarray(eta), np.asarray(pre_input)
    r = len(delta)
    if eta.shape != pre.shape or eta.ndim != 2 or eta.shape[0] != r:
        raise ValueError("eta and pre_input must both be (r, n)")
    half = delta[:, None] / 2.0 * (1 + 1e-12)
    ok_re = np.abs(eta.real) <= half
    ok_im = np.abs(eta.imag) <= half
    n_unclipped = np.minimum(ok_re.sum(axis=1), ok_im.sum(axis=1))
    if np.any(n_unclipped < MIN_NOISE_SAMPLES):
        raise InsufficientSamplesError(
            f"need >= {MIN_NOISE_SAMPLES} unclipped samples per quantizer "
            f"pair, got {n_unclipped.min()}")

    ks_re, ks_im, corr_in = np.empty((3, r))
    cdfs = None if cdf_grid is None else []
    for i in range(r):
        re = np.sort(eta[i].real[ok_re[i]])
        im = np.sort(eta[i].imag[ok_im[i]])
        ks_re[i] = ks_uniform(re, delta[i])
        ks_im[i] = ks_uniform(im, delta[i])
        if cdfs is not None:
            x = np.quantile(re, cdf_grid)
            cdfs.append(np.column_stack([
                x, cdf_grid, np.searchsorted(im, x, side="right") / im.size,
                uniform_cdf(x, delta[i])]))
        m = ok_re[i] & ok_im[i]
        cr = np.corrcoef(eta[i].real[m], pre[i].real[m])[0, 1]
        ci = np.corrcoef(eta[i].imag[m], pre[i].imag[m])[0, 1]
        corr_in[i] = max(abs(cr), abs(ci))

    keep = (ok_re & ok_im).all(axis=0)
    e = eta[:, keep]
    cov = (e @ e.conj().T) / keep.sum()
    diag = np.diag(cov).real
    offdiag = cov - np.diag(np.diag(cov))
    offdiag_ratio = float(np.max(np.abs(offdiag)) / np.mean(diag))
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    dg = np.sort(diag)[::-1]
    eig_vs_diag = float(np.max(np.abs(eig - dg) / dg))
    return StatReport(n_unclipped=n_unclipped, ks_re=ks_re, ks_im=ks_im,
                      diag=dg, eig=eig, offdiag_ratio=offdiag_ratio,
                      eig_vs_diag_rel=eig_vs_diag, corr_input=corr_in,
                      cdfs=cdfs)

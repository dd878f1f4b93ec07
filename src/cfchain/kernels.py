"""Hot numeric kernels: the per-sample chain evaluation and the mid-rise
quantizer, in numpy.

The chain kernel batches over the sample axis and, optionally, over a
leading sweep axis (bit widths or transmit powers), so a whole sweep of
one option runs in one call.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded by perfbench."""
    return "numpy"


# ---------------------------------------------------------------------------
# mid-rise quantizer, 2^b levels over [-gamma, gamma], saturating at the edge
# ---------------------------------------------------------------------------

def quantize_midrise(x: np.ndarray, gamma: np.ndarray,
                     delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quantize real values; gamma/delta broadcast against x.

    Returns (values, clipped_mask). A zero step size degenerates to a
    constant-zero quantizer that never counts clipping.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(gamma, dtype=float)
    d = np.asarray(delta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = x + g
        v /= d
        np.floor(v, out=v)
        v += 0.5
        v *= d
        v -= g
        half = 0.5 * d
        np.maximum(v, half - g, out=v)
        np.minimum(v, g - half, out=v)
    clipped = np.abs(x) > g
    live = d > 0
    if not live.all():
        v = np.where(live, v, 0.0)
        clipped = clipped & live
    return v, clipped


def quantize_complex(z: np.ndarray, gamma: np.ndarray,
                     delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One mid-rise quantizer each for the real and imaginary parts of z.

    gamma/delta broadcast against z. Both parts go through one call, as
    the interleaved float view of z. Returns (values, clipped_mask) with
    the mask shaped z.shape + (2,): real, imaginary.
    """
    x = np.ascontiguousarray(z, dtype=complex)[..., None].view(float)
    v, clipped = quantize_midrise(x, np.asarray(gamma)[..., None],
                                  np.asarray(delta)[..., None])
    return v.view(complex)[..., 0], clipped


# ---------------------------------------------------------------------------
# per-sample daisy-chain evaluation
#
# mode: 0 = lossless, 1/2/3 = the three processing sequences.
# Shapes, with an optional leading batch shape (...) shared by the plan
# arrays: H (L,N,K), one block's channels, AH (...,L,r,N) = A^H,
# V (...,L,K,r), gamma/delta (...,L,r), Y (L,N,S) shared by the batch or
# (...,L,N,S), D (L,r,S) or (...,L,r,S) the unit dither of
# `quantizer.draw_dither`, which the kernel scales by delta (unused, and
# may be None, when do_quant is false), all complex128/float64. A call
# covers one block: the sweeps pass one block's slice of a plan stacked
# over blocks (`ChainPlan.block`), whose batch is the sweep axis.
# ---------------------------------------------------------------------------

def evaluate_chain(H, AH, V, gamma, delta, Y, D, mode, do_quant,
                   collect_ap=None):
    """The one loop over APs: de-correlate, quantize, refine.

    Returns the final estimates (...,K,S), per-AP clipped-component counts
    (...,L), and at collect_ap the realized quantization noise f - z (zero
    for a lossless chain) and the pre-dither quantizer input, each
    (...,r,S); both are None when collect_ap is None.
    """
    L, _, K = H.shape
    batch = AH.shape[:-3]
    S = Y.shape[-1]
    s_hat = np.zeros(batch + (K, S), dtype=complex)
    clips = np.zeros(batch + (L,), dtype=np.int64)
    eta = pre = None
    for l in range(L):
        AH_l = AH[..., l, :, :]
        Y_l = Y[..., l, :, :]
        pred = H[l] @ s_hat
        if mode <= 1:
            qin = AH_l @ (Y_l - pred)
            predp = None
        elif mode == 2:
            qin = AH_l @ Y_l
            predp = AH_l @ pred
        else:
            qin = Y_l
            predp = pred
        if do_quant:
            step = delta[..., l, :, None]
            f, clipped = quantize_complex(qin + step * D[..., l, :, :],
                                          gamma[..., l, :, None], step)
            clips[..., l] = np.count_nonzero(clipped, axis=(-3, -2, -1))
        else:
            f = qin
        if l == collect_ap:
            # z is formed again rather than kept from above: holding one
            # more (...,r,S) array across APs raised the power sweep's
            # page faults and wall time. qin may be a view of Y; the copy
            # does not keep Y alive.
            z = qin + step * D[..., l, :, :] if do_quant else qin
            eta, pre = f - z, qin.copy()
        if mode >= 2:
            f = f - predp
        s_hat += V[..., l, :, :] @ f
    return s_hat, clips, eta, pre


def apply_chain(H, AH, V, gamma, delta, Y, D, mode, do_quant):
    """Final estimates (...,K,S) and per-AP clip counts (...,L)."""
    return evaluate_chain(H, AH, V, gamma, delta, Y, D, mode, do_quant)[:2]

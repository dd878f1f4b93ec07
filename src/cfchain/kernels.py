"""The hot numeric kernel: the per-sample chain evaluation, in numpy.

The chain kernel batches over the sample axis and, optionally, over a
leading sweep axis (bit widths or transmit powers), so a whole sweep of
one option runs in one call. Each AP's quantizers are
`quantizer.quantize_complex`.
"""

from __future__ import annotations

import numpy as np

from .quantizer import quantize_complex


def active_backend() -> str:
    """Name of the kernel implementation, recorded by perfbench."""
    return "numpy"


# ---------------------------------------------------------------------------
# per-sample daisy-chain evaluation
#
# mode: 0 = lossless, 1/2/3 = the three processing sequences.
# Shapes, with an optional leading batch shape (...) shared by the plan
# arrays: H (L,N,K), one block's channels, or (...,L,N,K), AH (...,L,r,N)
# = A^H, V (...,L,K,r), gamma/delta (...,L,r), Y (L,N,S) shared by the
# batch or (...,L,N,S), D (L,r,S) or (...,L,r,S) the unit dither of
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
    L, _, K = H.shape[-3:]
    batch = AH.shape[:-3]
    S = Y.shape[-1]
    s_hat = np.zeros(batch + (K, S), dtype=complex)
    clips = np.zeros(batch + (L,), dtype=np.int64)
    eta = pre = None
    for l in range(L):
        AH_l = AH[..., l, :, :]
        Y_l = Y[..., l, :, :]
        pred = H[..., l, :, :] @ s_hat
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

"""The hot numeric kernel: the per-sample chain evaluation, in numpy.

The chain kernel batches over the sample axis and, optionally, over a
leading sweep axis (bit widths or transmit powers), so a whole sweep of
one option runs in one call. Each AP quantizes in units of its own
steps, by `quantizer.quantize_in_steps`.
"""

from __future__ import annotations

import numpy as np

from .quantizer import quantize_in_steps, step_units


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
# `quantizer.draw_dither` (unused, and may be None, when do_quant is
# false), all complex128/float64. A call covers one block: the sweeps
# pass one block's slice of a plan stacked over blocks (`ChainPlan.block`),
# whose batch is the sweep axis.
#
# The mode chooses the evaluation, whatever the call. Modes 0, 2 and 3
# fold the chain into one combiner. Their quantizer input, A_l^H y_l (y_l
# for mode 3), does not read the running estimate s, and each AP's update
# s <- (I - V_l A_l^H H_l) s + V_l f_l is linear in s, so the chain's
# output is s = sum_l B_l f_l with B_l = prod_{j>l} (I - V_j A_j^H H_j) V_l:
# the loop only quantizes, into the stacked f, and one (K, L*r) combiner,
# built backward over the APs once per call, takes it. Mode 1 quantizes
# A_l^H (y_l - H_l s), which reads s, so it keeps the running estimate.
# A collect call runs the same evaluation as a sweep call and reads one
# AP's internals on the way, so the two agree bit for bit.
#
# The quantizers run in step units. Once per call the rows of A^H are
# scaled by 1/delta (modes 1 and 2; mode 3 scales y_l as it reads it), so
# each AP forms x = (its quantizer input)/delta, adds the unit dither as
# drawn, and `quantize_in_steps` floors and clamps x against one 2^(b-1)
# per (batch entry, AP); no per-sample operand is a per-stream gamma or
# delta. The steps come back in the combining: mode 1 scales the columns
# of V by delta, and the folded combiner's columns are scaled by delta
# after `chain_combiner` builds it from the unscaled V, whose P update
# needs V. A dead stream (delta = 0, 1/delta := 0) forwards zero. A
# collect call reports in input units: pre from the unscaled A^H, and
# eta = delta q - (pre + delta D).
#
# The combiner's product is split over sample slices of at most
# _MACS_PER_PRODUCT complex multiply-adds per batch entry, the size of one
# AP's V_l f at the fig5 shapes (K, r, S) = (10, 4, 500). One unsliced
# K x L*r x S product crosses OpenBLAS's threading threshold: with BLAS
# threads unpinned in a 2-worker pool on 2 vCPUs it stalled acceptance
# criterion 5 from about 20 s to 82-98 s, and the sliced product runs it
# in 17-21 s.
# ---------------------------------------------------------------------------

_MACS_PER_PRODUCT = 20_000


def evaluate_chain(H, AH, V, gamma, delta, Y, D, mode, do_quant,
                   collect_ap=None):
    """The one loop over APs: de-correlate, quantize, refine.

    Returns the final estimates (...,K,S), per-AP clipped-component counts
    (...,L), and at collect_ap the realized quantization noise f - z (zero
    for a lossless chain) and the pre-dither quantizer input, each
    (...,r,S), in input units; both are None when collect_ap is None.
    Mode 1 refines the running estimate at every AP; modes 0, 2 and 3
    refine once, after the loop, through `chain_combiner`.
    """
    L, _, K = H.shape[-3:]
    batch = AH.shape[:-3]
    r = AH.shape[-2]
    S = Y.shape[-1]
    fold = mode != 1
    AHq, Vq = AH, V  # in step units when quantizing
    if do_quant:
        inv, levels = step_units(gamma, delta)
        if mode != 3:
            AHq = AH * inv[..., None]
        if not fold:
            Vq = V * delta[..., None, :]
    if fold:
        F = np.empty(batch + (L, r, S), dtype=complex)
    else:
        s_hat = np.zeros(batch + (K, S), dtype=complex)
    clips = np.zeros(batch + (L,), dtype=np.int64)
    eta = pre = None
    for l in range(L):
        Y_l = Y[..., l, :, :]
        if fold:
            x, resid = F[..., l, :, :], Y_l  # nothing is predicted
            if mode != 3:
                np.matmul(AHq[..., l, :, :], Y_l, out=x)
            elif do_quant:
                np.multiply(Y_l, inv[..., l, :, None], out=x)
            else:
                x[...] = Y_l
        else:
            resid = Y_l - H[..., l, :, :] @ s_hat
            x = AHq[..., l, :, :] @ resid
        if l == collect_ap:
            pre = Y_l.copy() if mode == 3 else AH[..., l, :, :] @ resid
        if do_quant:
            x += D[..., l, :, :]
            clips[..., l] = quantize_in_steps(x, levels[..., l])
        if l == collect_ap:
            eta = (delta[..., l, :, None] * x
                   - (pre + delta[..., l, :, None] * D[..., l, :, :])
                   if do_quant else np.zeros_like(pre))
        if not fold:
            s_hat += Vq[..., l, :, :] @ x
    if fold:
        Bc = chain_combiner(H, AH, V)
        if do_quant:
            Bc *= delta[..., None, :, :]
        Bc = Bc.reshape(batch + (K, L * r))
        F = F.reshape(batch + (L * r, S))
        s_hat = np.empty(batch + (K, S), dtype=complex)
        n = max(1, _MACS_PER_PRODUCT // (K * L * r))
        for a in range(0, S, n):
            np.matmul(Bc, F[..., a:a + n], out=s_hat[..., a:a + n])
    return s_hat, clips, eta, pre


def chain_combiner(H, AH, V):
    """The chain's combiner (...,K,L,r): entry [..., :, l, :] is
    B_l = prod_{j>l} (I - V_j A_j^H H_j) V_l, the weight of AP l's
    forwarded f_l in the final estimate of a mode-0, -2 or -3 chain."""
    L, r, _ = AH.shape[-3:]
    K = V.shape[-2]
    G = AH @ H  # (...,L,r,K): A_l^H H_l
    B = np.empty(AH.shape[:-3] + (K, L, r), dtype=complex)
    P = np.eye(K)
    for l in range(L - 1, -1, -1):
        B_l = V[..., l, :, :] if l == L - 1 else P @ V[..., l, :, :]
        B[..., l, :] = B_l
        if l:
            P = P - B_l @ G[..., l, :, :]
    return B


def apply_chain(H, AH, V, gamma, delta, Y, D, mode, do_quant):
    """Final estimates (...,K,S) and per-AP clip counts (...,L)."""
    return evaluate_chain(H, AH, V, gamma, delta, Y, D, mode, do_quant)[:2]

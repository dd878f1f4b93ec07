"""The hot numeric kernel: the per-sample chain evaluation, in numpy.

The chain kernel batches over the sample axis and, optionally, over a
leading sweep axis (bit widths or transmit powers), so a whole sweep of
one option runs in one call.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainPlan
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
# = A^H, V (...,L,K,r), bits (...,L) int64 and delta (...,L,r), the
# plan's bit widths and steps, Y (L,N,S) shared by the batch or
# (...,L,N,S), D (L,r,S) or (...,L,r,S) the unit dither of
# `quantizer.draw_dither` (bits, delta and D are unused, and D may be
# None, when do_quant is false), all complex128/float64 but bits. A call
# covers one block: the sweeps pass one block's slice of a plan stacked
# over blocks (`ChainPlan.block`), whose batch is the sweep axis.
#
# Every mode runs one evaluation: one product projects every AP's y_l
# into the stack F (...,L*r,S), as A_l^H y_l (y_l for mode 3), one loop
# over the APs adds the dither and quantizes each AP's slice, and the estimate
# is one product s = Bc F, with Bc (...,K,L*r) holding each AP's weight.
# Modes 0, 2 and 3 quantize views of the raw y_l, so the chain is linear
# in F and Bc is `_chain_combiner`. Mode 1 quantizes A_l^H (y_l - H_l s):
# with Bc = [V_0 ... V_{L-1}] its estimate after AP l-1 is
# Bc[:, :l*r] F[:l*r], so its loop first subtracts the prediction
# W[l*r:(l+1)*r, :l*r] F[:l*r], W = (A^H H) Bc built once per call. The
# loop stays per AP: one pass over all of F (1.76 MB at the fig5 shapes,
# 352 kB per AP) quantized slower. A collect call reads its AP's noise
# and input off F (`apply_chain_collect`), forms no estimate, and
# keeps slot 0 of its tuple, None, for callers that read the clips from
# slot 3. F and Bc never leave this module.
#
# The quantizers run in step units. Once per call the rows of A^H are
# scaled by 1/delta (mode 3 scales y_l as it projects), so each AP forms
# x = (its quantizer input)/delta, adds the unit dither as drawn, and
# `quantize_in_steps` floors and clamps x against one 2^(b-1) per (batch
# entry, AP), from the plan's bits. The steps come back in Bc's columns,
# scaled by delta (for modes 0, 2 and 3 after `_chain_combiner` builds Bc
# from the unscaled V, whose P update needs V). A dead stream (delta = 0,
# 1/delta := 0) forwards zero.
#
# Products over the sample axis (`_chain_product`) run over sample slices
# of at most _MACS_PER_PRODUCT complex multiply-adds per batch entry, one
# AP's V_l f at the fig5 shapes (K, r, S) = (10, 4, 500): one unsliced
# K x L*r x S product crosses OpenBLAS's threading threshold, and with
# BLAS threads unpinned in a 2-worker pool on 2 vCPUs it stalled
# acceptance criterion 5 from about 20 s to 82-98 s.
# ---------------------------------------------------------------------------

_MACS_PER_PRODUCT = 20_000


def evaluate_chain(H, AH, V, bits, delta, Y, D, mode, do_quant):
    """The one evaluation of every mode: project every AP, then, AP by
    AP (one pass over all of F runs out of cache), subtract mode 1's
    prediction and quantize.

    Returns (Bc (...,K,L*r), F (...,L*r,S), clips (...,L)): the estimate
    is Bc F (`_chain_product`), F what the APs forward (in step units when
    quantizing) and clips each AP's clipped real components. A collect
    call reads F alone, so slot 0 of its tuple is None.
    """
    L, _, K = H.shape[-3:]
    batch, r, S = AH.shape[:-3], AH.shape[-2], Y.shape[-1]
    AHq = AH  # in step units when quantizing
    if do_quant:
        inv, levels = step_units(bits, delta)
        if mode != 3:
            AHq = AH * inv[..., None]
    F = np.empty(batch + (L, r, S), dtype=complex)
    if mode != 3:
        np.matmul(AHq, Y, out=F)
    else:
        np.multiply(Y, inv[..., None] if do_quant else 1.0, out=F)
    F = F.reshape(batch + (L * r, S))
    if mode == 1:
        Vq = V * delta[..., None, :] if do_quant else V
        Bc = np.moveaxis(Vq, -3, -2).reshape(batch + (K, L * r))
        W = (AHq @ H).reshape(batch + (L * r, K)) @ Bc
    else:
        Bc = _chain_combiner(H, AH, V)
        if do_quant:
            Bc *= delta[..., None, :, :]
        Bc = Bc.reshape(batch + (K, L * r))
    clips = np.zeros(batch + (L,), dtype=np.int64)
    for l in range(L):
        x = F[..., l * r:(l + 1) * r, :]
        if mode == 1 and l:
            x -= _chain_product(W[..., l * r:(l + 1) * r, :l * r],
                                F[..., :l * r, :])
        if do_quant:  # a contiguous copy quantizes faster than strided x
            q = x + D[..., l, :, :]
            clips[..., l] = quantize_in_steps(q, levels[..., l])
            x[...] = q
    return Bc, F, clips


def _chain_product(B, F):
    """B (...,M,n) @ F (...,n,S), in B's batch shape, over sample slices
    of at most _MACS_PER_PRODUCT complex multiply-adds per batch entry."""
    M, n = B.shape[-2:]
    out = np.empty(B.shape[:-1] + F.shape[-1:], dtype=complex)
    step = max(1, _MACS_PER_PRODUCT // (M * n))
    for a in range(0, F.shape[-1], step):
        np.matmul(B, F[..., a:a + step], out=out[..., a:a + step])
    return out


def _chain_combiner(H, AH, V):
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


def apply_chain(H, AH, V, bits, delta, Y, D, mode, do_quant):
    """Final estimates (...,K,S) and per-AP clip counts (...,L)."""
    Bc, F, clips = evaluate_chain(H, AH, V, bits, delta, Y, D, mode,
                                  do_quant)
    return _chain_product(Bc, F), clips


def apply_chain_collect(plan: ChainPlan, Y: np.ndarray, D: np.ndarray,
                        collect_ap: int):
    """One AP's quantizer internals, for the noise statistics: the plan's
    chain on the unit dither D (L,r,S), returning (None, eta (r,S),
    pre (r,S), clips (L,)), the realized quantization noise at collect_ap
    (zero when lossless) and the pre-dither input there, in input units,
    and the clip counts. No estimate is formed; slot 0 keeps the tuple's
    order, since perfbench reads the clips from slot 3.
    """
    # not apply_chain: traced kernel clips must equal Cell.clipped
    Bc, F, clips = evaluate_chain(
        plan.H, plan.AH, plan.V, plan.bits, plan.delta, Y, D, plan.mode,
        plan.option.quantized)
    l, r = collect_ap, plan.r
    y = Y[..., l, :, :]
    if plan.mode == 1 and l:  # the residual against the estimate so far
        y = y - plan.H[..., l, :, :] @ _chain_product(
            Bc[..., :l * r], F[..., :l * r, :])
    pre = plan.AH[..., l, :, :] @ y
    d = plan.delta[..., l, :, None]
    eta = (d * F[..., l * r:(l + 1) * r, :] - (pre + d * D[..., l, :, :])
           if plan.option.quantized else np.zeros_like(pre))
    return None, eta, pre, clips

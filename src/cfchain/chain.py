"""Per-AP processing chain and its recursion along the daisy chain.

Each AP receives the running user-signal estimate and its error covariance
from the previous AP, quantizes a (possibly de-correlated) view of its own
received vector, refines the estimate with a linear MMSE update, and
forwards the updated state. The error covariance is conditioned on the
local channels, so all combining matrices are recomputed once per
coherence block while the per-sample work reduces to small matrix-vector
products handled by the kernels module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import NetworkConfig, Option
from .quantizer import QuantizerBank, calibrate_dynamic_range, draw_dither


class ChainNumericsError(RuntimeError):
    """A matrix factorization failed inside the chain recursion."""


@dataclass
class ApState:
    """Running estimate and error covariance passed along the chain."""

    s_hat: np.ndarray  # (K,) complex
    C: np.ndarray      # (K,K) Hermitian PSD error covariance

    @classmethod
    def initial(cls, K: int, p: float) -> "ApState":
        return cls(s_hat=np.zeros(K, dtype=complex),
                   C=p * np.eye(K, dtype=complex))


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return M.conj().swapaxes(-1, -2)


def hermitize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _ct(M))


def interap_decorrelate(y: np.ndarray, H_l: np.ndarray,
                        s_hat_prev: np.ndarray) -> np.ndarray:
    """Remove the part of y predictable from the previous estimate."""
    y = np.asarray(y)
    if H_l.shape[0] != y.shape[0] or H_l.shape[1] != s_hat_prev.shape[0]:
        raise ValueError("dimension mismatch between y, H_l, s_hat_prev")
    return y - H_l @ s_hat_prev


def residual_covariance(H_l: np.ndarray, C_prev: np.ndarray,
                        sigma2: float) -> np.ndarray:
    """Covariance of the de-correlated received vector, H C H^H + sigma2 I.

    C_prev may be a (..., K, K) stack; the result is then (..., N, N).
    """
    N = H_l.shape[0]
    return hermitize(H_l @ C_prev @ H_l.conj().T + sigma2 * np.eye(N))


def pca_basis(R: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-r orthonormal eigenvectors of a Hermitian PSD matrix.

    R may be a (..., N, N) stack; A is then (..., N, r) and the eigenvalues
    (..., r). Eigenvalues come out in descending order. Each vector's
    largest-magnitude entry is rotated to be real positive, and the vectors
    of exactly equal eigenvalues are ordered lexicographically, which maps
    an isotropic matrix to the canonical basis; repeated runs are
    bit-identical.
    """
    R = np.asarray(R)
    N = R.shape[-1]
    if r > N:
        raise ValueError(f"r={r} exceeds matrix size {N}")
    try:
        vals, vecs = np.linalg.eigh(R)
    except np.linalg.LinAlgError as e:
        raise ChainNumericsError(
            f"eigendecomposition failed: {e}; "
            f"trace={np.trace(R, axis1=-2, axis2=-1)!r}, "
            f"norm={np.max(np.linalg.norm(R, axis=(-2, -1))):g}") from e
    vals = vals[..., ::-1]  # eigh returns them ascending
    vecs = vecs[..., ::-1]
    # unit-norm columns: the pivot's magnitude is at least 1/sqrt(N)
    piv = np.take_along_axis(
        vecs, np.abs(vecs).argmax(axis=-2)[..., None, :], axis=-2)
    vecs *= piv.conj() / np.abs(piv)
    # exact eigenvalue ties among the leading r: order the tied columns
    # lexicographically, matrix by matrix
    m = min(r + 1, N)
    tied = (vals[..., 1:m] == vals[..., :m - 1]).any(axis=-1)
    if tied.any():
        for idx in map(tuple, np.argwhere(tied)):
            _order_tied_columns(vals[idx], vecs[idx], r)
    return np.ascontiguousarray(vecs[..., :r]), vals[..., :r].real


def _order_tied_columns(vals: np.ndarray, vecs: np.ndarray, r: int):
    """Sort, in place, each run of equal eigenvalues that starts before r."""
    j = 0
    while j < r:
        k = j + 1
        while k < vecs.shape[1] and vals[k] == vals[j]:
            k += 1
        if k - j > 1:
            block = vecs[:, j:k]
            keys = [tuple(np.round(np.concatenate(
                [block[:, c].real, block[:, c].imag]), 12)) for c in
                range(block.shape[1])]
            sel = sorted(range(block.shape[1]), key=lambda c: keys[c],
                         reverse=True)
            vecs[:, j:k] = block[:, sel]
        j = k


def project(A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Coordinates of G in the retained basis: A^H G."""
    if A.shape[0] != G.shape[0]:
        raise ValueError("dimension mismatch between A and G")
    return A.conj().T @ G


def observation_covariance(A: np.ndarray, R_G: np.ndarray,
                           bank: QuantizerBank | None) -> np.ndarray:
    """Covariance of the forwarded observation: A^H R_G A + R_d + R_eta."""
    Rf = hermitize(_ct(A) @ R_G @ A)
    if bank is not None:
        Rf = Rf + bank.R_d + bank.R_eta
    return Rf


def refine_estimate(state_prev: ApState, H_l: np.ndarray, A: np.ndarray,
                    R_f: np.ndarray, f: np.ndarray) -> ApState:
    """One linear MMSE refinement step.

    f must already be de-biased: it carries only the innovation (plus
    dither and quantization noise). The update is
        V = C H^H A R_f^-1,  s_hat += V f,  C <- (I - V A^H H) C,
    realized through a linear solve, after a Cholesky factorization has
    confirmed that R_f is positive definite, and explicit re-Hermitization.
    """
    V, C_new = _combiner_and_covariance(state_prev.C, H_l, A, R_f)
    return ApState(s_hat=state_prev.s_hat + V @ f, C=C_new)


def _combiner_and_covariance(C_prev, H_l, A, R_f):
    M = _ct(A) @ H_l @ C_prev      # (..., r, K)
    try:
        np.linalg.cholesky(R_f)
    except np.linalg.LinAlgError as e:
        raise ChainNumericsError(
            f"observation covariance not positive definite: {e}; "
            f"cond~{np.max(np.linalg.cond(R_f)):.2e}") from e
    X = np.linalg.solve(R_f, M)    # R_f^-1 A^H H C
    V = _ct(X)                     # (..., K, r)
    C_new = hermitize(C_prev - _ct(M) @ X)
    return V, C_new


@dataclass
class ChainPlan:
    """Per-coherence-block combining data for one option and bit vector.

    Everything here is fixed across the samples of the block; the kernels
    consume the stacked arrays. A plan built for a sweep carries a leading
    batch axis (B) on every array, one entry per axis point.
    """

    option: Option
    r: int
    AH: np.ndarray       # ([B,] L, r, N) projection rows A^H
    V: np.ndarray        # ([B,] L, K, r) combining matrices
    gamma: np.ndarray    # ([B,] L, r) dynamic ranges (zeros for NOQUANT)
    delta: np.ndarray    # ([B,] L, r) step sizes
    eigvals: np.ndarray  # ([B,] L, r) basis-source spectra (diagnostic)
    C_final: np.ndarray  # ([B,] K, K) final error covariance
    traces: np.ndarray   # ([B,] L+1) trace of C before/after each AP
    banks: list = field(default_factory=list)          # per-AP QuantizerBank
    covariances: list | None = None                    # per-AP C, optional

    @property
    def mode(self) -> int:
        return self.option.mode


def build_chain_plan(cfg: NetworkConfig, H: np.ndarray,
                     option: Option | None = None,
                     bits: np.ndarray | None = None,
                     p: float | np.ndarray | None = None,
                     keep_covariances: bool = False) -> ChainPlan:
    """Run the covariance recursion for one block's channels.

    H is (L, N, K). bits overrides cfg.bits, one value per AP: (L,) for one
    plan or (B, L) for a batch of B plans. p overrides the configured
    transmit power (used by power sweeps): a scalar, or (B,) for a batch.
    With neither batched the plan's arrays have no batch axis.
    """
    option = cfg.option if option is None else option
    bits = np.asarray(cfg.b_l if bits is None else bits, dtype=np.int64)
    p = np.asarray(cfg.p if p is None else p, dtype=float)
    L, N, K = H.shape
    batch = np.broadcast_shapes(bits.shape[:-1], p.shape)
    bits = np.broadcast_to(bits, batch + (L,))
    p = np.broadcast_to(p, batch)
    r = N if option is Option.OPTION3 else min(N, K)
    quantized = option.quantized

    C = p[..., None, None] * np.eye(K, dtype=complex)
    AH = np.empty(batch + (L, r, N), dtype=complex)
    V = np.empty(batch + (L, K, r), dtype=complex)
    gamma = np.zeros(batch + (L, r))
    delta = np.zeros(batch + (L, r))
    eigvals = np.zeros(batch + (L, r))
    traces = np.empty(batch + (L + 1,))
    traces[..., 0] = np.trace(C, axis1=-2, axis2=-1).real
    banks = []
    covs = [] if keep_covariances else None

    for l in range(L):
        H_l = H[l]
        R_G = residual_covariance(H_l, C, cfg.sigma2)
        if option in (Option.OPTION1, Option.NOQUANT):
            A, lam = pca_basis(R_G, r)
            input_var = lam
        elif option is Option.OPTION2:
            R_y = hermitize(p[..., None, None] * (H_l @ H_l.conj().T)
                            + cfg.sigma2 * np.eye(N))
            A, lam = pca_basis(R_y, r)
            input_var = lam
        else:  # OPTION3: quantize the raw vector, no rotation
            R_y = (p[..., None, None] * (H_l @ H_l.conj().T)
                   + cfg.sigma2 * np.eye(N))
            A = np.eye(N, dtype=complex)
            input_var = np.diagonal(R_y, axis1=-2, axis2=-1).real
            lam = input_var
        bank = None
        if quantized:
            bank = calibrate_dynamic_range(input_var, cfg.alpha,
                                           bits[..., l])
            gamma[..., l, :] = bank.gamma
            delta[..., l, :] = bank.delta
        banks.append(bank)
        R_f = observation_covariance(A, R_G, bank)
        V[..., l, :, :], C = _combiner_and_covariance(C, H_l, A, R_f)
        AH[..., l, :, :] = _ct(A)
        eigvals[..., l, :] = lam
        traces[..., l + 1] = np.trace(C, axis1=-2, axis2=-1).real
        if covs is not None:
            covs.append(C.copy())

    return ChainPlan(option=option, r=r, AH=AH, V=V, gamma=gamma, delta=delta,
                     eigvals=eigvals, C_final=C, traces=traces, banks=banks,
                     covariances=covs)


def run_chain(cfg: NetworkConfig, channel, y: np.ndarray,
              rng: np.random.Generator,
              option: Option | None = None) -> tuple[ApState, dict]:
    """Process one received sample y (L, N) through the whole chain.

    Dither is drawn from rng, AP by AP. Returns the final state plus
    per-AP diagnostics (covariance traces, basis spectra, clipping counts).
    """
    option = cfg.option if option is None else option
    H = channel.H if hasattr(channel, "H") else np.asarray(channel)
    plan = build_chain_plan(cfg, H, option=option)
    y = np.asarray(y, dtype=complex)
    if y.shape != H.shape[:2]:
        raise ValueError(f"y must be (L, N) = {H.shape[:2]}, got {y.shape}")
    L = H.shape[0]
    if option.quantized:
        D = np.stack([draw_dither(plan.banks[l], rng) for l in range(L)])
    else:
        D = np.zeros((L, plan.r), dtype=complex)
    s_hat, clips = kernels.apply_chain(
        H, plan.AH, plan.V, plan.gamma, plan.delta, y[:, :, None],
        D[:, :, None], plan.mode, option.quantized)
    state = ApState(s_hat=s_hat[:, 0], C=plan.C_final)
    diagnostics = {
        "traces": plan.traces,
        "eigvals": plan.eigvals,
        "clipped": clips,
        "gamma": plan.gamma,
        "delta": plan.delta,
    }
    return state, diagnostics


def apply_chain_collect(plan: ChainPlan, Y: np.ndarray, D: np.ndarray,
                        collect_ap: int):
    """Numpy-only chain evaluation that retains one AP's quantizer internals.

    Returns (s_hat (K,S), eta (r,S), pre (r,S), clips (L,)) where eta is
    the realized quantization noise at collect_ap and pre the pre-dither
    quantizer input there. Used by the noise-statistics experiments; not a
    hot path.
    """
    L = plan.AH.shape[0]
    K = plan.V.shape[1]
    S = Y.shape[2]
    quantized = plan.option.quantized
    mode = plan.mode
    s_hat = np.zeros((K, S), dtype=complex)
    clips = np.zeros(L, dtype=np.int64)
    eta_c = None
    pre_c = None
    for l in range(L):
        pred = plan._H[l] @ s_hat
        if mode <= 1:
            qin = plan.AH[l] @ (Y[l] - pred)
            predp = None
        elif mode == 2:
            qin = plan.AH[l] @ Y[l]
            predp = plan.AH[l] @ pred
        else:
            qin = Y[l]
            predp = pred
        if quantized:
            z = qin + D[l]
            f, clipped = kernels.quantize_complex(
                z, plan.gamma[l][:, None], plan.delta[l][:, None])
            clips[l] = np.count_nonzero(clipped)
            if l == collect_ap:
                eta_c = f - z
                pre_c = qin.copy()
        else:
            f = qin
        if mode >= 2:
            f = f - predp
        s_hat = s_hat + plan.V[l] @ f
    return s_hat, eta_c, pre_c, clips


def attach_channels(plan: ChainPlan, H: np.ndarray) -> ChainPlan:
    """Store the block's channels on the plan for the collect path."""
    plan._H = np.asarray(H)
    return plan


def centralized_mmse_oracle(H_all: np.ndarray, y_all: np.ndarray, p: float,
                            sigma2: float) -> np.ndarray:
    """Batch LMMSE on the stacked network: p Hb^H (p Hb Hb^H + s2 I)^-1 yb.

    H_all: (L, N, K) or already stacked (LN, K); y_all likewise (L, N) or
    (LN,) or (LN, S). Test oracle for the lossless chain.
    """
    H_all = np.asarray(H_all)
    Hb = H_all.reshape(-1, H_all.shape[-1]) if H_all.ndim == 3 else H_all
    y = np.asarray(y_all)
    yb = y.reshape(Hb.shape[0], -1) if y.ndim >= 2 else y.reshape(-1, 1)
    squeeze = y.ndim == 1 or (y.ndim == 2 and H_all.ndim == 3)
    M = Hb.shape[0]
    Ry = p * (Hb @ Hb.conj().T) + sigma2 * np.eye(M)
    sol = np.linalg.solve(Ry, yb)
    out = p * (Hb.conj().T @ sol)
    return out[:, 0] if squeeze and out.shape[1] == 1 else out

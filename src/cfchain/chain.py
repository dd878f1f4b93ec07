"""Per-AP processing chain and its recursion along the daisy chain.

Each AP receives the running user-signal estimate and its error covariance
from the previous AP, quantizes a (possibly de-correlated) view of its own
received vector, refines the estimate with a linear MMSE update, and
forwards the updated state. The error covariance is conditioned on the
local channels, so `build_chain_plan` runs the covariance recursion once
per coherence block and stores every combining matrix in a `ChainPlan`,
with the per-AP error covariances; the last one is the final error
covariance. The recursion's matrices are small (N x N and K x K), so one
call stacks it over many blocks' channels and a whole sweep axis, and
`ChainPlan.block` hands each block its own slice. The quantizers enter
only through their step sizes, whose noise model is
`quantizer.noise_covariance`.
The per-sample work is one loop over the APs, `kernels.evaluate_chain`:
`kernels.apply_chain` runs it for the sweeps and `apply_chain_collect`
runs it keeping one AP's quantizer internals for the noise statistics.
`centralized_mmse_oracle` is the batch estimator the lossless chain is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import NetworkConfig, Option
from .quantizer import calibrate_dynamic_range, noise_covariance


class ChainNumericsError(RuntimeError):
    """A matrix factorization failed inside the chain recursion."""


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return M.conj().swapaxes(-1, -2)


def hermitize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _ct(M))


def residual_covariance(H_l: np.ndarray, C_prev: np.ndarray,
                        sigma2: float) -> np.ndarray:
    """Covariance of the de-correlated received vector, H C H^H + sigma2 I.

    H_l (..., N, K) and C_prev (..., K, K) broadcast; the result is
    (..., N, N).
    """
    N = H_l.shape[-2]
    return hermitize(H_l @ C_prev @ _ct(H_l) + sigma2 * np.eye(N))


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


def observation_covariance(A: np.ndarray, R_G: np.ndarray,
                           delta: np.ndarray) -> np.ndarray:
    """Covariance of the forwarded observation: A^H R_G A plus the
    quantizer noise model for step sizes delta (zero steps add nothing)."""
    return hermitize(_ct(A) @ R_G @ A) + noise_covariance(delta)


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
    consume the stacked arrays. A plan carries a leading batch shape (...)
    on every array but H: one entry per block of a stacked plan, per axis
    point of a sweep, or both, blocks first.
    """

    option: Option
    r: int
    H: np.ndarray        # (..., L, N, K) the channels as given to the plan
    AH: np.ndarray       # (..., L, r, N) projection rows A^H
    V: np.ndarray        # (..., L, K, r) combining matrices
    gamma: np.ndarray    # (..., L, r) dynamic ranges (zeros for NOQUANT)
    delta: np.ndarray    # (..., L, r) step sizes (zeros for NOQUANT)
    traces: np.ndarray   # (..., L+1) trace of C before/after each AP
    covariances: list    # L x (..., K, K): C after each AP, the last final

    @property
    def mode(self) -> int:
        return self.option.mode

    def block(self, j: int) -> "ChainPlan":
        """The plan of entry j of the leading axis, e.g. one block of a
        plan stacked over blocks. H is indexed too, so it keeps whatever
        unit axes it was given with."""
        return ChainPlan(option=self.option, r=self.r, H=self.H[j],
                         AH=self.AH[j], V=self.V[j], gamma=self.gamma[j],
                         delta=self.delta[j], traces=self.traces[j],
                         covariances=[C[j] for C in self.covariances])


def build_chain_plan(cfg: NetworkConfig, H: np.ndarray,
                     option: Option = Option.OPTION1,
                     bits: np.ndarray | None = None,
                     p: float | np.ndarray | None = None) -> ChainPlan:
    """Run the covariance recursion for one or many blocks' channels.

    H is (..., L, N, K): one block's channels, or a stack of them. bits
    overrides cfg.b_l, one value per AP: (L,) for one plan or (B, L) for
    a batch of B plans. p overrides the configured transmit power (used
    by power sweeps): a scalar, or (B,) for a batch. The plan's batch
    shape is broadcast(H.shape[:-3], bits.shape[:-1], p.shape); pass
    H[:, None] to stack T blocks against a B-point sweep, giving (T, B).
    Each entry of the batch is bit-identical to the plan built from its
    own channels and parameters alone.

    bits is broadcast to the batch, p is not: a matrix that depends on H
    and p alone keeps their batch, so the starting covariance, AP 0's
    residual covariance and option2's R_y are formed and factored once
    per (block, p), not once per bit width, and broadcast where they are
    written into the batch's arrays.
    """
    bits = np.asarray(cfg.b_l if bits is None else bits, dtype=np.int64)
    p = np.asarray(cfg.p if p is None else p, dtype=float)
    L, N, K = H.shape[-3:]
    batch = np.broadcast_shapes(H.shape[:-3], bits.shape[:-1], p.shape)
    bits = np.broadcast_to(bits, batch + (L,))
    r = N if option is Option.OPTION3 else min(N, K)
    quantized = option.quantized

    C = p[..., None, None] * np.eye(K, dtype=complex)
    AH = np.empty(batch + (L, r, N), dtype=complex)
    V = np.empty(batch + (L, K, r), dtype=complex)
    gamma = np.zeros(batch + (L, r))
    delta = np.zeros(batch + (L, r))
    traces = np.empty(batch + (L + 1,))
    traces[..., 0] = np.trace(C, axis1=-2, axis2=-1).real
    covs = []

    for l in range(L):
        H_l = H[..., l, :, :]
        R_G = residual_covariance(H_l, C, cfg.sigma2)
        if option in (Option.OPTION1, Option.NOQUANT):
            A, input_var = pca_basis(R_G, r)
        elif option is Option.OPTION2:
            R_y = hermitize(p[..., None, None] * (H_l @ _ct(H_l))
                            + cfg.sigma2 * np.eye(N))
            A, input_var = pca_basis(R_y, r)
        else:  # OPTION3: quantize the raw vector, no rotation
            R_y = (p[..., None, None] * (H_l @ _ct(H_l))
                   + cfg.sigma2 * np.eye(N))
            A = np.eye(N, dtype=complex)
            input_var = np.diagonal(R_y, axis1=-2, axis2=-1).real
        if quantized:
            gamma[..., l, :], delta[..., l, :] = calibrate_dynamic_range(
                input_var, cfg.alpha, bits[..., l])
        R_f = observation_covariance(A, R_G, delta[..., l, :])
        V[..., l, :, :], C = _combiner_and_covariance(C, H_l, A, R_f)
        AH[..., l, :, :] = _ct(A)
        traces[..., l + 1] = np.trace(C, axis1=-2, axis2=-1).real
        covs.append(C)

    return ChainPlan(option=option, r=r, H=H, AH=AH, V=V, gamma=gamma,
                     delta=delta, traces=traces, covariances=covs)


def apply_chain_collect(plan: ChainPlan, Y: np.ndarray, D: np.ndarray,
                        collect_ap: int):
    """Evaluate the plan's chain on the unit dither D (L,r,S) and keep
    one AP's quantizer internals.

    Returns (s_hat (K,S), eta (r,S), pre (r,S), clips (L,)) where eta is
    the realized quantization noise at collect_ap and pre the pre-dither
    quantizer input there. Used by the noise-statistics experiments.
    """
    # not kernels.apply_chain: traced kernel clips must equal Cell.clipped
    s_hat, clips, eta, pre = kernels.evaluate_chain(
        plan.H, plan.AH, plan.V, plan.gamma, plan.delta, Y, D, plan.mode,
        plan.option.quantized, collect_ap)
    return s_hat, eta, pre, clips


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

"""Per-AP processing chain and its recursion along the daisy chain.

Each AP receives the running user-signal estimate and its error covariance
from the previous AP, quantizes a (possibly de-correlated) view of its own
received vector, refines the estimate with a linear MMSE update, and
forwards the updated state. The error covariance is conditioned on the
local channels, so `build_chain_plan` runs the covariance recursion once
per coherence block and stores every combining matrix in a `ChainPlan`,
with the trace of the error covariance after each AP and the final error
covariance. The recursion's matrices are small (N x N and K x K), so one
call stacks it over many blocks' channels and a whole sweep axis, and
`ChainPlan.block` hands each block its own slice. The quantizers enter
the recursion only through their step sizes, whose noise model is
`quantizer.noise_covariance`; a plan keeps each AP's bit width and its
streams' steps for the per-sample work, which is `kernels.py`'s.
`centralized_mmse_oracle` is the batch estimator every option's chain
is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

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
    (..., r). Eigenvalues come out in descending order, and exactly equal
    ones keep eigh's order, which maps an isotropic matrix to the
    canonical basis. Each vector's largest-magnitude entry is rotated to
    be real positive; repeated runs are bit-identical.
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
    # eigh returns them ascending; a stable sort keeps its order in ties
    order = np.argsort(-vals, axis=-1, kind="stable")[..., :r]
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    # unit-norm columns: the pivot's magnitude is at least 1/sqrt(N)
    piv = np.take_along_axis(
        vecs, np.abs(vecs).argmax(axis=-2)[..., None, :], axis=-2)
    vecs *= piv.conj() / np.abs(piv)
    return vecs, vals


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
        ratio = np.min(np.linalg.eigvalsh(C_prev).min(axis=-1)
                       / np.abs(np.trace(C_prev, axis1=-2, axis2=-1)))
        raise ChainNumericsError(
            f"observation covariance not positive definite: {e}; "
            f"incoming error covariance min eig/|trace| {ratio:.2e}") from e
    X = np.linalg.solve(R_f, M)    # R_f^-1 A^H H C
    V = _ct(X)                     # (..., K, r)
    C_new = hermitize(C_prev - _ct(M) @ X)
    return V, C_new


@dataclass
class ChainPlan:
    """Per-coherence-block combining data for one option and bit vector.

    Everything here is fixed across the samples of the block; the kernels
    consume the stacked arrays. A plan carries a leading batch shape (...)
    on every array: one entry per block of a stacked plan, per axis
    point of a sweep, or both, blocks first. The covariance after an
    earlier AP l is the final C of the plan built on APs 0..l.
    """

    option: Option
    H: np.ndarray        # (..., L, N, K) the channels, a broadcast view
    AH: np.ndarray       # (..., L, r, N) projection rows A^H
    V: np.ndarray        # (..., L, K, r) combining matrices
    bits: np.ndarray     # (..., L) int64 bit widths (zeros for NOQUANT)
    delta: np.ndarray    # (..., L, r) step sizes (zeros for NOQUANT)
    traces: np.ndarray   # (..., L+1) trace of C before/after each AP
    C: np.ndarray        # (..., K, K) final error covariance

    @property
    def mode(self) -> int:
        return self.option.mode

    @property
    def r(self) -> int:
        return self.AH.shape[-2]

    def block(self, j: int) -> "ChainPlan":
        """The plan of entry j of the leading axis, e.g. one block of a
        plan stacked over blocks."""
        return ChainPlan(**{f.name: self.option if f.name == "option"
                            else getattr(self, f.name)[j]
                            for f in fields(self)})


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
    written into the batch's arrays. A lossless chain ignores the bits:
    its plan keeps a unit axis where bits has a batch axis, and zero
    bits, one plan that serves every bit width.
    """
    bits = np.asarray(cfg.b_l if bits is None else bits, dtype=np.int64)
    if not option.quantized:  # no quantizer, one plan for every width
        bits = np.zeros_like(bits[(slice(0, 1),) * (bits.ndim - 1)])
    p = np.asarray(cfg.p if p is None else p, dtype=float)
    L, N, K = H.shape[-3:]
    batch = np.broadcast_shapes(H.shape[:-3], bits.shape[:-1], p.shape)
    bits = np.broadcast_to(bits, batch + (L,))
    r = N if option is Option.OPTION3 else min(N, K)

    C = p[..., None, None] * np.eye(K, dtype=complex)
    AH = np.empty(batch + (L, r, N), dtype=complex)
    V = np.empty(batch + (L, K, r), dtype=complex)
    delta = np.zeros(batch + (L, r))
    traces = np.empty(batch + (L + 1,))
    traces[..., 0] = np.trace(C, axis1=-2, axis2=-1).real

    for l in range(L):
        H_l = H[..., l, :, :]
        R_G = residual_covariance(H_l, C, cfg.sigma2)
        if option in (Option.OPTION1, Option.NOQUANT):
            A, input_var = pca_basis(R_G, r)
        else:  # options 2 and 3 quantize a view of the raw vector
            R_y = hermitize(p[..., None, None] * (H_l @ _ct(H_l))
                            + cfg.sigma2 * np.eye(N))
            if option is Option.OPTION2:
                A, input_var = pca_basis(R_y, r)
            else:  # OPTION3: no rotation
                A = np.eye(N, dtype=complex)
                input_var = np.diagonal(R_y, axis1=-2, axis2=-1).real
        if option.quantized:
            delta[..., l, :] = calibrate_dynamic_range(
                input_var, cfg.alpha, bits[..., l])[1]
        R_f = observation_covariance(A, R_G, delta[..., l, :])
        V[..., l, :, :], C = _combiner_and_covariance(C, H_l, A, R_f)
        AH[..., l, :, :] = _ct(A)
        traces[..., l + 1] = np.trace(C, axis1=-2, axis2=-1).real

    return ChainPlan(option=option, H=np.broadcast_to(H, batch + (L, N, K)),
                     AH=AH, V=V, bits=bits, delta=delta, traces=traces, C=C)


def centralized_mmse_oracle(G: np.ndarray, z: np.ndarray, p: float,
                            noise_var) -> np.ndarray:
    """Batch LMMSE on stacked observations z = G s + noise:
    p Gb^H (p Gb Gb^H + diag(noise_var))^-1 zb.

    G is (L, r, K), each AP's observation rows; z is (L, r), giving (K,),
    or (L, r, S), giving (K, S); noise_var, a scalar or (L, r), is the
    variance of each observation's noise. On (H, Y, p, sigma2) it is the
    centralized estimator of the lossless network. Test oracle for the
    chain of every option.
    """
    L, r, K = G.shape
    Gb = G.reshape(L * r, K)
    zb = z.reshape((L * r,) + z.shape[2:])
    Rz = p * (Gb @ Gb.conj().T) + np.diag(
        np.broadcast_to(noise_var, (L, r)).ravel())
    return p * (Gb.conj().T @ np.linalg.solve(Rz, zb))

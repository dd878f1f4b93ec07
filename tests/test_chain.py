import numpy as np
import pytest

from cfchain import kernels
from cfchain.chain import (ApState, ChainNumericsError, attach_channels,
                           apply_chain_collect, build_chain_plan,
                           centralized_mmse_oracle, hermitize,
                           interap_decorrelate, observation_covariance,
                           pca_basis, project, refine_estimate,
                           residual_covariance, run_chain)
from cfchain.config import NetworkConfig, Option
from cfchain.geometry import crandn, draw_channel, generate_placement
from cfchain.harness import Role, seed_stream
from cfchain.presets import preset
from cfchain.quantizer import calibrate_dynamic_range


def _scenario(seed=0, **kw):
    cfg = NetworkConfig(seed=seed, **kw)
    placement = generate_placement(
        cfg, seed_stream(seed, 0, 0, 0, Role.PLACEMENT))
    ch = draw_channel(cfg, placement, seed_stream(seed, 0, 0, 0, Role.CHANNEL))
    return cfg, ch


def _received(cfg, ch, S, seed=0):
    rng = seed_stream(seed, 0, 0, 0, Role.NOISE)
    s = np.sqrt(cfg.p) * crandn(rng, cfg.K, S)
    Y = np.einsum("lnk,ks->lns", ch.H, s) \
        + np.sqrt(cfg.sigma2) * crandn(rng, cfg.L, cfg.N, S)
    return s, Y


class TestDecorrelateAndCovariance:
    def test_zero_prior_passthrough(self, rng):
        H = crandn(rng, 4, 10)
        y = crandn(rng, 4)
        out = interap_decorrelate(y, H, np.zeros(10, complex))
        assert np.array_equal(out, y)

    def test_perfect_prior_noiseless(self, rng):
        H = crandn(rng, 4, 10)
        s = crandn(rng, 10)
        out = interap_decorrelate(H @ s, H, s)
        assert np.max(np.abs(out)) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            interap_decorrelate(crandn(rng, 4), crandn(rng, 4, 10),
                                np.zeros(9, complex))

    def test_residual_trivials(self, rng):
        H = crandn(rng, 4, 10)
        out = residual_covariance(H, np.zeros((10, 10), complex), 0.3)
        assert np.allclose(out, 0.3 * np.eye(4))
        out = residual_covariance(np.zeros((4, 10), complex),
                                  0.7 * np.eye(10, dtype=complex), 0.3)
        assert np.allclose(out, 0.3 * np.eye(4))

    def test_residual_matches_monte_carlo(self, rng):
        # covariance of y - H s_hat for s with prior covariance C
        N, K, n = 4, 10, 100_000
        H = crandn(rng, N, K)
        sqrtC = rng.uniform(0.2, 1.0, K)
        C = np.diag(sqrtC ** 2).astype(complex)
        sigma2 = 0.1
        resid = H @ (sqrtC[:, None] * crandn(rng, K, n)) \
            + np.sqrt(sigma2) * crandn(rng, N, n)
        emp = (resid @ resid.conj().T) / n
        model = residual_covariance(H, C, sigma2)
        rel = np.linalg.norm(emp - model) / np.linalg.norm(model)
        assert rel < 0.02


class TestPcaBasis:
    def test_isotropic_tie_break(self):
        A, vals = pca_basis(0.5 * np.eye(4, dtype=complex), 3)
        assert np.allclose(vals, 0.5)
        assert np.allclose(A, np.eye(4)[:, :3])

    def test_diagonal_case(self):
        A, vals = pca_basis(np.diag([4.0, 1.0]).astype(complex), 1)
        assert vals[0] == pytest.approx(4.0)
        assert np.allclose(np.abs(A[:, 0]), [1.0, 0.0])
        assert A[0, 0].real > 0 and abs(A[0, 0].imag) < 1e-15

    def test_full_reconstruction(self, rng):
        X = crandn(rng, 4, 4)
        R = hermitize(X @ X.conj().T)
        A, vals = pca_basis(R, 4)
        recon = (A * vals) @ A.conj().T
        assert np.linalg.norm(recon - R) < 1e-10

    def test_orthonormal_descending(self, rng):
        X = crandn(rng, 6, 6)
        R = hermitize(X @ X.conj().T)
        A, vals = pca_basis(R, 4)
        assert np.allclose(A.conj().T @ A, np.eye(4), atol=1e-10)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_phase_convention_reproducible(self, rng):
        X = crandn(rng, 5, 5)
        R = hermitize(X @ X.conj().T)
        A1, _ = pca_basis(R, 5)
        A2, _ = pca_basis(R.copy(), 5)
        assert np.array_equal(A1, A2)
        for j in range(5):
            i = np.argmax(np.abs(A1[:, j]))
            assert A1[i, j].real > 0
            assert abs(A1[i, j].imag) < 1e-12

    def test_batch_mixing_isotropic_and_generic(self, rng):
        X = crandn(rng, 4, 4)
        stack = np.stack([hermitize(X @ X.conj().T),
                          0.5 * np.eye(4, dtype=complex),
                          np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex)])
        A, vals = pca_basis(stack, 3)
        assert A.shape == (3, 4, 3) and vals.shape == (3, 3)
        for i in range(3):
            A_i, vals_i = pca_basis(stack[i], 3)
            assert np.allclose(A[i], A_i, rtol=0, atol=1e-12)
            assert np.allclose(vals[i], vals_i, rtol=0, atol=1e-12)
        assert np.allclose(A[1], np.eye(4)[:, :3])


class TestProjectAndObservation:
    def test_identity_projection(self, rng):
        G = crandn(rng, 4)
        assert np.array_equal(project(np.eye(4, dtype=complex), G), G)

    def test_nullspace_input(self):
        A = np.eye(4, dtype=complex)[:, :2]
        G = np.array([0, 0, 1.0, 2.0], dtype=complex)
        assert np.max(np.abs(project(A, G))) == 0

    def test_non_expansive(self, rng):
        X = crandn(rng, 5, 5)
        A, _ = pca_basis(hermitize(X @ X.conj().T), 3)
        G = crandn(rng, 5)
        assert np.linalg.norm(project(A, G)) <= np.linalg.norm(G) + 1e-12

    def test_fine_quantization_limit(self, rng):
        X = crandn(rng, 4, 4)
        R = hermitize(X @ X.conj().T)
        A, vals = pca_basis(R, 4)
        bank = calibrate_dynamic_range(vals, alpha=3.0, b=24)
        Rf = observation_covariance(A, R, bank)
        assert np.allclose(Rf, A.conj().T @ R @ A, atol=1e-10)

    def test_direct_substitution(self):
        bank = calibrate_dynamic_range([1.0, 1.0, 1.0, 1.0], alpha=3.0, b=3)
        Rf = observation_covariance(np.eye(4, dtype=complex),
                                    0.5 * np.eye(4, dtype=complex), bank)
        expected = 0.5 * np.eye(4) + 2 * np.diag(bank.delta ** 2 / 6)
        assert np.allclose(Rf, expected)

    def test_observation_diag_matches_monte_carlo(self):
        # diag(R_f) vs sample variance of the forwarded observation
        cfg, ch = _scenario(seed=4)
        plan = attach_channels(
            build_chain_plan(cfg, ch.H, option=Option.OPTION1), ch.H)
        n = 100_000
        s, Y = _received(cfg, ch, n, seed=4)
        du = seed_stream(4, 0, 0, 0, Role.DITHER, option_tag=1)
        Du = du.uniform(-0.5, 0.5, (cfg.L, plan.r, n)) \
            + 1j * du.uniform(-0.5, 0.5, (cfg.L, plan.r, n))
        # AP 0: f = quantized projection of y (no prior to subtract)
        l = 0
        qin = plan.AH[l] @ Y[l]
        z = qin + plan.delta[l][:, None] * Du[l]
        vr, _ = kernels.quantize_midrise(
            z.real, plan.gamma[l][:, None], plan.delta[l][:, None])
        vi, _ = kernels.quantize_midrise(
            z.imag, plan.gamma[l][:, None], plan.delta[l][:, None])
        f = vr + 1j * vi
        var_emp = np.mean(np.abs(f) ** 2, axis=1)
        R_G = residual_covariance(ch.H[l], cfg.p * np.eye(cfg.K), cfg.sigma2)
        Rf = observation_covariance(plan.AH[l].conj().T, R_G, plan.banks[l])
        assert np.allclose(var_emp, np.diag(Rf).real, rtol=0.03)


class TestBatchedPlan:
    """A plan batched over the sweep axis equals one plan per axis point."""

    FIELDS = ("AH", "V", "gamma", "C_final")

    def _check(self, batched, singles):
        for name in self.FIELDS:
            stacked = getattr(batched, name)
            assert stacked.shape[0] == len(singles)
            for i, single in enumerate(singles):
                ref = getattr(single, name)
                assert (np.linalg.norm(stacked[i] - ref)
                        <= 1e-10 * np.linalg.norm(ref)), name

    @pytest.mark.parametrize("opt", [Option.OPTION1, Option.OPTION2,
                                     Option.OPTION3, Option.NOQUANT])
    def test_bit_sweep(self, opt):
        cfg, ch = _scenario(seed=3)
        bits = np.repeat(np.arange(1, 9)[:, None], cfg.L, axis=1)
        batched = build_chain_plan(cfg, ch.H, option=opt, bits=bits)
        self._check(batched, [build_chain_plan(cfg, ch.H, option=opt, bits=b)
                              for b in bits])

    @pytest.mark.parametrize("opt", [Option.OPTION1, Option.OPTION2,
                                     Option.OPTION3, Option.NOQUANT])
    def test_power_sweep(self, opt):
        cfg, ch = _scenario(seed=5)
        p_db = np.asarray(preset("fig5")[1].power_sweep_db, dtype=float)
        p_lin = 10.0 ** (p_db / 10.0)
        batched = build_chain_plan(cfg, ch.H, option=opt, p=p_lin)
        self._check(batched, [build_chain_plan(cfg, ch.H, option=opt, p=p)
                              for p in p_lin])

    def test_unbatched_shapes(self):
        cfg, ch = _scenario()
        L, N, K, r = cfg.L, cfg.N, cfg.K, cfg.r
        plan = build_chain_plan(cfg, ch.H)
        assert plan.AH.shape == (L, r, N)
        assert plan.V.shape == (L, K, r)
        assert plan.gamma.shape == plan.delta.shape == (L, r)
        assert plan.C_final.shape == (K, K)
        assert plan.traces.shape == (L + 1,)
        assert plan.banks[0].gamma.shape == (r,)


class TestRefineEstimate:
    def test_zero_channel_keeps_state(self, rng):
        state = ApState.initial(10, 0.1)
        H = np.zeros((4, 10), complex)
        A = np.eye(4, dtype=complex)
        Rf = np.eye(4, dtype=complex)
        out = refine_estimate(state, H, A, Rf, crandn(rng, 4))
        assert np.array_equal(out.s_hat, state.s_hat)
        assert np.allclose(out.C, state.C)

    def test_zero_covariance_keeps_state(self, rng):
        state = ApState(s_hat=crandn(rng, 10),
                        C=np.zeros((10, 10), complex))
        H = crandn(rng, 4, 10)
        out = refine_estimate(state, H, np.eye(4, dtype=complex),
                              np.eye(4, dtype=complex), crandn(rng, 4))
        assert np.allclose(out.s_hat, state.s_hat)

    def test_single_ap_textbook_lmmse(self, rng):
        # chain step from the prior equals p H^H (p H H^H + s2 I)^-1 y
        N, K, p, sigma2 = 4, 10, 0.1, 0.05
        H = crandn(rng, N, K)
        y = crandn(rng, N)
        state = ApState.initial(K, p)
        R_G = residual_covariance(H, state.C, sigma2)
        A = np.eye(N, dtype=complex)
        out = refine_estimate(state, H, A, observation_covariance(A, R_G, None),
                              y)
        ref = p * H.conj().T @ np.linalg.solve(
            p * (H @ H.conj().T) + sigma2 * np.eye(N), y)
        assert np.max(np.abs(out.s_hat - ref)) < 1e-10

    def test_non_pd_observation_raises(self):
        state = ApState.initial(4, 1.0)
        H = np.eye(4, dtype=complex)
        with pytest.raises(ChainNumericsError):
            refine_estimate(state, H, np.eye(4, dtype=complex),
                            np.zeros((4, 4), complex), np.zeros(4, complex))


class TestRunChain:
    def test_lossless_equals_centralized(self):
        worst = 0.0
        for seed in range(5):
            cfg, ch = _scenario(seed=seed)
            s, Y = _received(cfg, ch, 1, seed=seed)
            state, diag = run_chain(cfg, ch, Y[:, :, 0],
                                    np.random.default_rng(seed),
                                    option=Option.NOQUANT)
            ref = centralized_mmse_oracle(ch.H, Y[:, :, 0], cfg.p, cfg.sigma2)
            worst = max(worst, float(np.max(np.abs(state.s_hat - ref))))
        assert worst < 1e-9

    def test_single_ap_chain_equals_refine(self, rng):
        cfg = NetworkConfig(L=1, bits=3)
        placement = generate_placement(cfg, np.random.default_rng(0))
        ch = draw_channel(cfg, placement, np.random.default_rng(1))
        y = (ch.H[0] @ (np.sqrt(cfg.p) * crandn(rng, cfg.K))
             + np.sqrt(cfg.sigma2) * crandn(rng, cfg.N))
        state, _ = run_chain(cfg, ch, y[None, :], np.random.default_rng(2),
                             option=Option.NOQUANT)
        prior = ApState.initial(cfg.K, cfg.p)
        R_G = residual_covariance(ch.H[0], prior.C, cfg.sigma2)
        A, _ = pca_basis(R_G, cfg.r)
        ref = refine_estimate(prior, ch.H[0], A,
                              observation_covariance(A, R_G, None),
                              project(A, y))
        assert np.max(np.abs(state.s_hat - ref.s_hat)) < 1e-10
        assert np.allclose(state.C, ref.C, atol=1e-12)

    def test_fine_quantization_tracks_lossless(self):
        cfg, ch = _scenario(seed=2)
        n = 4000
        s, Y = _received(cfg, ch, n, seed=2)
        plan_q = build_chain_plan(cfg, ch.H, option=Option.OPTION1,
                                  bits=np.full(cfg.L, 12))
        plan_0 = build_chain_plan(cfg, ch.H, option=Option.NOQUANT)
        du = seed_stream(2, 0, 0, 0, Role.DITHER, option_tag=1)
        Du = du.uniform(-0.5, 0.5, (cfg.L, plan_q.r, n)) \
            + 1j * du.uniform(-0.5, 0.5, (cfg.L, plan_q.r, n))
        sh_q, _ = kernels.apply_chain(ch.H, plan_q.AH, plan_q.V, plan_q.gamma,
                                      plan_q.delta, Y,
                                      plan_q.delta[:, :, None] * Du, 1, True)
        sh_0, _ = kernels.apply_chain(ch.H, plan_0.AH, plan_0.V, plan_0.gamma,
                                      plan_0.delta, Y,
                                      np.zeros((cfg.L, plan_0.r, n), complex),
                                      0, False)
        nm_q = np.mean(np.sum(np.abs(s - sh_q) ** 2, 0) /
                       np.sum(np.abs(s) ** 2, 0))
        nm_0 = np.mean(np.sum(np.abs(s - sh_0) ** 2, 0) /
                       np.sum(np.abs(s) ** 2, 0))
        assert abs(nm_q - nm_0) / nm_0 < 0.02

    def test_trace_monotone_and_psd(self):
        for seed, opt in [(0, Option.OPTION1), (1, Option.OPTION2),
                          (2, Option.OPTION3), (3, Option.NOQUANT)]:
            cfg, ch = _scenario(seed=seed)
            plan = build_chain_plan(cfg, ch.H, option=opt,
                                    keep_covariances=True)
            assert np.all(np.diff(plan.traces) <= 1e-8 * plan.traces[0])
            for C in plan.covariances:
                assert np.max(np.abs(C - C.conj().T)) < 1e-10
                assert np.linalg.eigvalsh(C).min() >= -1e-8 * np.trace(C).real

    def test_interap_orthogonality(self):
        # quantized output of AP 1 is uncorrelated with the innovation at AP 2
        cfg, ch = _scenario(seed=6)
        plan = attach_channels(
            build_chain_plan(cfg, ch.H, option=Option.OPTION1), ch.H)
        n = 100_000
        s, Y = _received(cfg, ch, n, seed=6)
        du = seed_stream(6, 0, 0, 0, Role.DITHER, option_tag=1)
        Du = du.uniform(-0.5, 0.5, (cfg.L, plan.r, n)) \
            + 1j * du.uniform(-0.5, 0.5, (cfg.L, plan.r, n))
        D = plan.delta[:, :, None] * Du
        # reproduce f_1 and s_hat_1, then the AP-2 innovation
        z = plan.AH[0] @ Y[0] + D[0]
        vr, _ = kernels.quantize_midrise(
            z.real, plan.gamma[0][:, None], plan.delta[0][:, None])
        vi, _ = kernels.quantize_midrise(
            z.imag, plan.gamma[0][:, None], plan.delta[0][:, None])
        f1 = vr + 1j * vi
        s_hat1 = plan.V[0] @ f1
        G2 = Y[1] - ch.H[1] @ s_hat1
        f1c = f1 - f1.mean(axis=1, keepdims=True)
        G2c = G2 - G2.mean(axis=1, keepdims=True)
        cross = (f1c @ G2c.conj().T) / n
        norm = np.sqrt(np.outer(np.mean(np.abs(f1c) ** 2, 1),
                                np.mean(np.abs(G2c) ** 2, 1)))
        assert np.max(np.abs(cross) / norm) < 0.02

    def test_mc_error_matches_trace(self):
        # lossless chain: E||s - s_hat||^2 == trace(C_L) for fixed channels
        cfg, ch = _scenario(seed=8)
        n = 10_000
        s, Y = _received(cfg, ch, n, seed=8)
        plan = build_chain_plan(cfg, ch.H, option=Option.NOQUANT)
        sh, _ = kernels.apply_chain(ch.H, plan.AH, plan.V, plan.gamma,
                                    plan.delta, Y,
                                    np.zeros((cfg.L, plan.r, n), complex),
                                    0, False)
        emp = np.mean(np.sum(np.abs(s - sh) ** 2, axis=0))
        assert emp == pytest.approx(plan.traces[-1], rel=0.03)

    def test_retained_variance_is_maximal(self):
        # descending eigenvalues: any other r-subset retains less variance
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = NetworkConfig(N=6, K=4)  # N > K forces real truncation
        placement = generate_placement(cfg, np.random.default_rng(1))
        ch = draw_channel(cfg, placement, np.random.default_rng(2))
        R = residual_covariance(ch.H[0], cfg.p * np.eye(cfg.K), cfg.sigma2)
        A, vals = pca_basis(R, cfg.r)
        all_vals = np.linalg.eigvalsh(R)
        assert vals.sum() == pytest.approx(
            np.sort(all_vals)[::-1][:cfg.r].sum(), rel=1e-12)

    def test_collect_path_matches_kernel(self):
        cfg, ch = _scenario(seed=9)
        n = 256
        s, Y = _received(cfg, ch, n, seed=9)
        for opt in (Option.OPTION1, Option.OPTION2, Option.OPTION3):
            plan = attach_channels(build_chain_plan(cfg, ch.H, option=opt),
                                   ch.H)
            du = seed_stream(9, 0, 0, 0, Role.DITHER, option_tag=opt.mode)
            Du = du.uniform(-0.5, 0.5, (cfg.L, plan.r, n)) \
                + 1j * du.uniform(-0.5, 0.5, (cfg.L, plan.r, n))
            D = plan.delta[:, :, None] * Du
            sh_a, eta, pre, clips_a = apply_chain_collect(plan, Y, D, 2)
            sh_b, clips_b = kernels.apply_chain(
                ch.H, plan.AH, plan.V, plan.gamma, plan.delta, Y, D,
                plan.mode, True)
            assert np.max(np.abs(sh_a - sh_b)) < 1e-12
            assert eta.shape == (plan.r, n)
            half = np.broadcast_to(plan.delta[2][:, None] / 2, eta.shape)
            unclipped = np.abs(pre.real + D[2].real) <= plan.gamma[2][:, None]
            assert np.all(np.abs(eta.real)[unclipped]
                          <= half[unclipped] + 1e-15)


class TestCentralizedOracle:
    def test_zero_channel(self):
        out = centralized_mmse_oracle(np.zeros((3, 2, 4), complex),
                                      np.ones((3, 2), complex), 0.1, 0.01)
        assert np.all(out == 0)

    def test_noiseless_limit_is_least_squares(self, rng):
        H = crandn(rng, 5, 20, 10)  # LN = 100 >= K = 10, full column rank
        s = crandn(rng, 10)
        y = np.einsum("lnk,k->ln", H, s)
        out = centralized_mmse_oracle(H, y, 1.0, 1e-14)
        ls, *_ = np.linalg.lstsq(H.reshape(100, 10), y.ravel(), rcond=None)
        assert np.max(np.abs(out - ls)) < 1e-6

    def test_batched_samples(self, rng):
        H = crandn(rng, 2, 3, 4)
        Y = crandn(rng, 2, 3, 7)
        out = centralized_mmse_oracle(H, Y.reshape(6, 7), 0.5, 0.1)
        assert out.shape == (4, 7)
        one = centralized_mmse_oracle(H, Y[:, :, 0], 0.5, 0.1)
        assert np.allclose(out[:, 0], one)

import dataclasses

import numpy as np
import pytest

from cfchain import kernels
from cfchain.chain import (ChainNumericsError, ChainPlan,
                           apply_chain_collect, build_chain_plan,
                           centralized_mmse_oracle, hermitize,
                           observation_covariance, pca_basis,
                           residual_covariance)
from cfchain.config import NetworkConfig, Option
from cfchain.geometry import crandn
from cfchain.harness import trial_channels
from cfchain.presets import preset
from cfchain.quantizer import calibrate_dynamic_range
from scenario import received, run_chain, scenario, unit_dither


class TestDecorrelateAndCovariance:
    def test_zero_prior_passthrough(self):
        # the first AP has no prior estimate: it quantizes A^H y itself
        cfg, H = scenario(seed=1)
        _, Y = received(cfg, H, 64, seed=1)
        plan = build_chain_plan(cfg, H, option=Option.OPTION1)
        _, _, pre, _ = apply_chain_collect(plan, Y, unit_dither(plan, 64), 0)
        assert np.array_equal(pre, plan.AH[0] @ Y[0])

    def test_perfect_prior_noiseless(self, rng):
        # AP 0 recovers s exactly (N > K, noiseless, pseudo-inverse
        # combiner), so AP 1's de-correlated input vanishes
        L, N, K, S = 2, 4, 3, 16
        H = crandn(rng, L, N, K)
        Y = H @ crandn(rng, K, S)
        AH = np.broadcast_to(np.eye(N, dtype=complex), (L, N, N))
        V = np.stack([np.linalg.pinv(H[0]), np.zeros((K, N))])
        zero = np.zeros((L, N))
        _, _, eta, pre = kernels.evaluate_chain(H, AH, V, zero, zero, Y, None,
                                                1, False, collect_ap=1)
        assert np.max(np.abs(pre)) < 1e-12 * np.max(np.abs(Y))
        assert not eta.any()

    def test_dimension_mismatch(self):
        cfg, H = scenario()
        plan = build_chain_plan(cfg, H, option=Option.NOQUANT)
        with pytest.raises(ValueError):
            run_chain(H, plan, np.zeros((cfg.L, cfg.N + 1, 3), complex))

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
    def test_identity_projection(self):
        # option3 quantizes the raw received vector: A = I at every AP
        cfg, H = scenario(seed=2)
        _, Y = received(cfg, H, 32, seed=2)
        plan = build_chain_plan(cfg, H, option=Option.OPTION3)
        assert np.array_equal(plan.AH,
                              np.broadcast_to(np.eye(cfg.N), plan.AH.shape))
        _, _, pre, _ = apply_chain_collect(plan, Y, unit_dither(plan, 32), 0)
        assert np.array_equal(pre, Y[0])

    def test_nullspace_input(self):
        # with r < N, the eigendirections AP 0 discards project to zero
        with pytest.warns(UserWarning):
            cfg, H = scenario(seed=1, N=6, K=4)
        plan = build_chain_plan(cfg, H, option=Option.OPTION1)
        R = residual_covariance(H[0], cfg.p * np.eye(cfg.K), cfg.sigma2)
        G = np.linalg.eigh(R)[1][:, :cfg.N - cfg.r]  # smallest eigenvalues
        assert np.max(np.abs(plan.AH[0] @ G)) < 1e-10

    def test_non_expansive(self, rng):
        with pytest.warns(UserWarning):
            cfg, H = scenario(seed=1, N=6, K=4)
        G = crandn(rng, cfg.N, 50)
        for opt in (Option.OPTION1, Option.OPTION2):
            AH = build_chain_plan(cfg, H, option=opt).AH
            assert np.all(np.linalg.norm(AH @ G, axis=-2)
                          <= np.linalg.norm(G, axis=0) + 1e-12)

    def test_fine_quantization_limit(self, rng):
        X = crandn(rng, 4, 4)
        R = hermitize(X @ X.conj().T)
        A, vals = pca_basis(R, 4)
        _, delta = calibrate_dynamic_range(vals, alpha=3.0, b=24)
        Rf = observation_covariance(A, R, delta)
        assert np.allclose(Rf, A.conj().T @ R @ A, atol=1e-10)

    def test_direct_substitution(self):
        _, delta = calibrate_dynamic_range([1.0, 1.0, 1.0, 1.0], alpha=3.0,
                                           b=3)
        Rf = observation_covariance(np.eye(4, dtype=complex),
                                    0.5 * np.eye(4, dtype=complex), delta)
        expected = 0.5 * np.eye(4) + 2 * np.diag(delta ** 2 / 6)
        assert np.allclose(Rf, expected)

    def test_observation_diag_matches_monte_carlo(self):
        # diag(R_f) vs sample variance of the forwarded observation
        cfg, H = scenario(seed=4)
        plan = build_chain_plan(cfg, H, option=Option.OPTION1)
        n = 100_000
        s, Y = received(cfg, H, n, seed=4)
        D = unit_dither(plan, n, seed=4)
        # AP 0: f = quantized projection of y (no prior to subtract)
        l = 0
        _, eta, pre, _ = apply_chain_collect(plan, Y, D, l)
        f = pre + plan.delta[l][:, None] * D[l] + eta
        var_emp = np.mean(np.abs(f) ** 2, axis=1)
        R_G = residual_covariance(H[l], cfg.p * np.eye(cfg.K), cfg.sigma2)
        Rf = observation_covariance(plan.AH[l].conj().T, R_G, plan.delta[l])
        assert np.allclose(var_emp, np.diag(Rf).real, rtol=0.03)


class TestBatchedPlan:
    """A plan batched over the sweep axis equals one plan per axis point."""

    @staticmethod
    def _fields(plan):
        return {"AH": plan.AH, "V": plan.V, "gamma": plan.gamma,
                "C": plan.C}

    def _check(self, batched, singles):
        for name, stacked in self._fields(batched).items():
            assert stacked.shape[0] == len(singles)
            for i, single in enumerate(singles):
                ref = self._fields(single)[name]
                assert (np.linalg.norm(stacked[i] - ref)
                        <= 1e-10 * np.linalg.norm(ref)), name

    @pytest.mark.parametrize("opt", [Option.OPTION1, Option.OPTION2,
                                     Option.OPTION3, Option.NOQUANT])
    def test_bit_sweep(self, opt):
        cfg, H = scenario(seed=3)
        bits = np.repeat(np.arange(1, 9)[:, None], cfg.L, axis=1)
        batched = build_chain_plan(cfg, H, option=opt, bits=bits)
        if opt.quantized:
            self._check(batched, [build_chain_plan(cfg, H, option=opt,
                                                   bits=b) for b in bits])
        else:  # a lossless chain ignores the bits: one plan, a unit axis
            assert batched.AH.shape[0] == 1
            single = build_chain_plan(cfg, H, option=opt)
            for f in dataclasses.fields(ChainPlan):
                assert np.array_equal(getattr(batched.block(0), f.name),
                                      getattr(single, f.name)), f.name

    @pytest.mark.parametrize("opt", [Option.OPTION1, Option.OPTION2,
                                     Option.OPTION3, Option.NOQUANT])
    def test_power_sweep(self, opt):
        cfg, H = scenario(seed=5)
        p_db = np.asarray(preset("fig5")[1].power_sweep_db, dtype=float)
        p_lin = 10.0 ** (p_db / 10.0)
        batched = build_chain_plan(cfg, H, option=opt, p=p_lin)
        self._check(batched, [build_chain_plan(cfg, H, option=opt, p=p)
                              for p in p_lin])

    @pytest.mark.parametrize("sweep", ["bits", "power", "flat"])
    @pytest.mark.parametrize("opt", [Option.OPTION1, Option.OPTION2,
                                     Option.OPTION3, Option.NOQUANT])
    def test_stacked_blocks_equal_single_blocks(self, opt, sweep):
        # the harness stacks a chunk of blocks' channels in one call: each
        # block's slice must be bit-identical to that block's own plan
        cfg = NetworkConfig()
        Hs = trial_channels(cfg, 7, [(0, blk) for blk in range(4)])
        kw = {"bits": {"bits": np.repeat(np.arange(1, 9)[:, None], cfg.L,
                                         axis=1)},
              "power": {"p": 10.0 ** (np.arange(-20, 1, 2) / 10.0)},
              "flat": {}}[sweep]
        stacked = build_chain_plan(cfg, Hs if sweep == "flat" else
                                   Hs[:, None], option=opt, **kw)
        for j, H in enumerate(Hs):
            single = build_chain_plan(cfg, H, option=opt, **kw)
            part = stacked.block(j)
            for f in dataclasses.fields(ChainPlan):
                assert np.array_equal(getattr(part, f.name),
                                      getattr(single, f.name)), f.name

    def test_block_carries_the_channels_of_its_batch(self):
        # a plan built from one block's channels against a sweep carries
        # them at every sweep point: block(0) is that block, not AP 0,
        # and evaluates as the batch's first point does
        cfg, H = scenario()
        bits = np.repeat(np.arange(1, 9)[:, None], cfg.L, axis=1)
        plan = build_chain_plan(cfg, H, bits=bits)
        assert np.array_equal(plan.block(0).H, H)
        _, Y = received(cfg, H, 16)
        D = unit_dither(plan, 16)
        assert np.array_equal(apply_chain_collect(plan, Y, D, 1)[1][0],
                              apply_chain_collect(plan.block(0), Y, D, 1)[1])

    def test_bit_axis_factors_bit_independent_bases_once(self, monkeypatch):
        # on the bit axis, option2's R_y and option1's AP-0 residual
        # covariance do not depend on the bit width: each is factored once
        # per block, as a (T, 1) stack, not once per (block, bit width)
        import cfchain.chain as chain_mod
        cfg = NetworkConfig()
        Hs = trial_channels(cfg, 7, [(0, blk) for blk in range(3)])
        bits = np.repeat(np.arange(1, 9)[:, None], cfg.L, axis=1)
        batches = []
        real = chain_mod.pca_basis

        def spy(R, r):
            batches.append(R.shape[:-2])
            return real(R, r)

        monkeypatch.setattr(chain_mod, "pca_basis", spy)
        build_chain_plan(cfg, Hs[:, None], option=Option.OPTION2, bits=bits)
        assert batches == [(3, 1)] * cfg.L
        batches.clear()
        build_chain_plan(cfg, Hs[:, None], option=Option.OPTION1, bits=bits)
        assert batches == [(3, 1)] + [(3, 8)] * (cfg.L - 1)

    def test_unbatched_shapes(self):
        cfg, H = scenario()
        L, N, K, r = cfg.L, cfg.N, cfg.K, cfg.r
        plan = build_chain_plan(cfg, H)
        assert plan.AH.shape == (L, r, N)
        assert plan.V.shape == (L, K, r)
        assert plan.gamma.shape == plan.delta.shape == (L, r)
        assert plan.r == r
        assert plan.C.shape == (K, K)
        assert plan.traces.shape == (L + 1,)


class TestRefineEstimate:
    def test_zero_channel_keeps_state(self, rng):
        # APs that hear nobody leave the estimate and covariance unchanged
        cfg = NetworkConfig()
        H = np.zeros((cfg.L, cfg.N, cfg.K), complex)
        plan = build_chain_plan(cfg, H, option=Option.NOQUANT)
        assert not plan.V.any()
        assert np.allclose(plan.C, cfg.p * np.eye(cfg.K))
        assert not run_chain(H, plan, crandn(rng, cfg.L, cfg.N, 8))[0].any()

    def test_zero_covariance_keeps_state(self):
        # a prior without uncertainty (p = 0) is never refined
        cfg, H = scenario()
        _, Y = received(cfg, H, 8)
        plan = build_chain_plan(cfg, H, option=Option.OPTION1, p=0.0)
        assert not plan.V.any()
        assert not plan.C.any()
        sh, _ = run_chain(H, plan, Y, unit_dither(plan, 8))
        assert not sh.any()

    def test_single_ap_textbook_lmmse(self):
        # one AP, full basis: p H^H (p H H^H + s2 I)^-1 y
        cfg, H_all = scenario(L=1, bits=3)
        _, y = received(cfg, H_all, 1)
        plan = build_chain_plan(cfg, H_all, option=Option.NOQUANT)
        H = H_all[0]
        ref = cfg.p * H.conj().T @ np.linalg.solve(
            cfg.p * (H @ H.conj().T) + cfg.sigma2 * np.eye(cfg.N), y[0])
        sh, _ = run_chain(H_all, plan, y)
        assert np.max(np.abs(sh - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_non_pd_observation_raises(self, monkeypatch):
        # no channel and no noise: the observation covariance is zero
        cfg = NetworkConfig()
        monkeypatch.setattr(NetworkConfig, "sigma2", 0.0)
        with pytest.raises(ChainNumericsError):
            build_chain_plan(cfg, np.zeros((cfg.L, cfg.N, cfg.K), complex),
                             option=Option.NOQUANT)


    def test_failure_names_the_incoming_covariance(self):
        # at 150 dB the recursion's C loses its semidefiniteness and the
        # next AP's observation covariance fails to factor
        cfg, plan = preset("fig4", seed=1)
        H, = trial_channels(cfg, plan.master_seed, [(0, 0)])
        with pytest.raises(ChainNumericsError,
                           match=r"error covariance min eig/\|trace\| -"):
            build_chain_plan(cfg, H, option=Option.NOQUANT, p=1e15)


class TestRunChain:
    def test_single_ap_chain_equals_refine(self):
        # one AP with r < N: the LMMSE update from the retained
        # coordinates A^H y, written out
        with pytest.warns(UserWarning):
            cfg, H_all = scenario(L=1, N=6, K=4, bits=3)
        _, y = received(cfg, H_all, 1)
        plan = build_chain_plan(cfg, H_all, option=Option.NOQUANT)
        H, AH = H_all[0], plan.AH[0]
        R_f = AH @ (cfg.p * (H @ H.conj().T)
                    + cfg.sigma2 * np.eye(cfg.N)) @ AH.conj().T
        V = cfg.p * H.conj().T @ AH.conj().T @ np.linalg.inv(R_f)
        C = cfg.p * np.eye(cfg.K) - cfg.p * V @ AH @ H
        ref = V @ AH @ y[0]
        sh, _ = run_chain(H_all, plan, y)
        assert np.max(np.abs(sh - ref)) < 1e-9 * np.max(np.abs(ref))
        assert np.allclose(plan.C, C, rtol=0, atol=1e-9 * cfg.p)

    def test_fine_quantization_tracks_lossless(self):
        cfg, H = scenario(seed=2)
        n = 4000
        s, Y = received(cfg, H, n, seed=2)
        plan_q = build_chain_plan(cfg, H, option=Option.OPTION1,
                                  bits=np.full(cfg.L, 12))
        plan_0 = build_chain_plan(cfg, H, option=Option.NOQUANT)
        sh_q, _ = run_chain(H, plan_q, Y, unit_dither(plan_q, n, 2))
        sh_0, _ = run_chain(H, plan_0, Y)
        nm_q = np.mean(np.sum(np.abs(s - sh_q) ** 2, 0) /
                       np.sum(np.abs(s) ** 2, 0))
        nm_0 = np.mean(np.sum(np.abs(s - sh_0) ** 2, 0) /
                       np.sum(np.abs(s) ** 2, 0))
        assert abs(nm_q - nm_0) / nm_0 < 0.02

    def test_interap_orthogonality(self):
        # quantized output of AP 1 is uncorrelated with the innovation at AP 2
        cfg, H = scenario(seed=6)
        plan = build_chain_plan(cfg, H, option=Option.OPTION1)
        n = 100_000
        s, Y = received(cfg, H, n, seed=6)
        D = unit_dither(plan, n, seed=6)
        # reproduce f_1 and s_hat_1, then the AP-2 innovation
        _, eta, pre, _ = apply_chain_collect(plan, Y, D, 0)
        f1 = pre + plan.delta[0][:, None] * D[0] + eta
        s_hat1 = plan.V[0] @ f1
        G2 = Y[1] - H[1] @ s_hat1
        f1c = f1 - f1.mean(axis=1, keepdims=True)
        G2c = G2 - G2.mean(axis=1, keepdims=True)
        cross = (f1c @ G2c.conj().T) / n
        norm = np.sqrt(np.outer(np.mean(np.abs(f1c) ** 2, 1),
                                np.mean(np.abs(G2c) ** 2, 1)))
        assert np.max(np.abs(cross) / norm) < 0.02

    def test_retained_variance_is_maximal(self):
        # descending eigenvalues: any other r-subset retains less variance
        with pytest.warns(UserWarning):
            cfg, H = scenario(seed=1, N=6, K=4)  # N > K: real truncation
        R = residual_covariance(H[0], cfg.p * np.eye(cfg.K), cfg.sigma2)
        A, vals = pca_basis(R, cfg.r)
        all_vals = np.linalg.eigvalsh(R)
        assert vals.sum() == pytest.approx(
            np.sort(all_vals)[::-1][:cfg.r].sum(), rel=1e-12)

    def test_collect_path_matches_kernel(self):
        cfg, H = scenario(seed=9)
        n = 256
        s, Y = received(cfg, H, n, seed=9)
        for opt in (Option.OPTION1, Option.OPTION2, Option.OPTION3):
            plan = build_chain_plan(cfg, H, option=opt)
            D = unit_dither(plan, n, seed=9)
            sh_a, eta, pre, clips_a = apply_chain_collect(plan, Y, D, 2)
            sh_b, clips_b = run_chain(H, plan, Y, D)
            assert np.array_equal(sh_a, sh_b)
            assert np.array_equal(clips_a, clips_b)
            assert eta.shape == (plan.r, n)
            half = np.broadcast_to(plan.delta[2][:, None] / 2, eta.shape)
            z = pre + plan.delta[2][:, None] * D[2]
            unclipped = np.abs(z.real) <= plan.gamma[2][:, None]
            assert np.all(np.abs(eta.real)[unclipped]
                          <= half[unclipped] + 1e-15)


    @pytest.mark.parametrize("opt", [Option.OPTION1, Option.OPTION2,
                                     Option.OPTION3])
    def test_prefix_plan_equals_full_plan(self, opt):
        # the noise statistics plan and run APs 0..ap alone: the recursion
        # and the kernel are causal, so a prefix is bit-identical
        cfg, H = scenario(seed=4)
        S = 128
        _, Y = received(cfg, H, S, seed=4)
        full = build_chain_plan(cfg, H, option=opt)
        D = unit_dither(full, S, seed=4)
        for n in range(1, cfg.L + 1):
            part = build_chain_plan(cfg, H[:n], option=opt,
                                    bits=cfg.b_l[:n])
            for name in ("AH", "V", "gamma", "delta"):
                assert np.array_equal(getattr(part, name),
                                      getattr(full, name)[:n]), name
            assert np.array_equal(part.traces, full.traces[..., :n + 1])
            _, eta, pre, _ = apply_chain_collect(part, Y[:n], D[:n], n - 1)
            _, eta_full, pre_full, _ = apply_chain_collect(full, Y, D, n - 1)
            assert np.array_equal(eta, eta_full)
            assert np.array_equal(pre, pre_full)
        assert np.array_equal(part.C, full.C)  # the last prefix is full


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
        out = centralized_mmse_oracle(H, Y, 0.5, 0.1)
        assert out.shape == (4, 7)
        one = centralized_mmse_oracle(H, Y[:, :, 0], 0.5, 0.1)
        assert np.allclose(out[:, 0], one)

    def test_per_observation_noise_variance(self, rng):
        # a scalar variance is that variance on every observation, and
        # an AP whose observations drown in noise adds nothing
        G = crandn(rng, 3, 2, 4)
        z = crandn(rng, 3, 2, 5)
        var = np.full((3, 2), 0.1)
        out = centralized_mmse_oracle(G, z, 0.5, var)
        assert np.array_equal(out, centralized_mmse_oracle(G, z, 0.5, 0.1))
        var[2] = 1e30
        assert np.allclose(centralized_mmse_oracle(G, z, 0.5, var),
                           centralized_mmse_oracle(G[:2], z[:2], 0.5, 0.1),
                           rtol=1e-9, atol=0)

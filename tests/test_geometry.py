import numpy as np
import pytest

from cfchain.chain import build_chain_plan
from cfchain.config import ConfigError, NetworkConfig, Option
from cfchain.geometry import (ap_grid, build_spatial_covariance, crandn,
                              draw_channel, generate_placement, pathloss_db)
from cfchain.harness import Role, seed_stream
from cfchain.quantizer import calibrate_dynamic_range
from scenario import received, scenario


class TestPathloss:
    def test_one_meter_anchor(self):
        assert pathloss_db(1.0) == pytest.approx(-30.5, abs=1e-12)

    def test_frozen_values(self):
        assert pathloss_db(100.0) == pytest.approx(-103.9, abs=1e-12)
        assert pathloss_db(10.0) == pytest.approx(-67.2, abs=1e-12)

    def test_slope_per_decade(self):
        d = np.array([3.7, 11.0, 42.0, 250.0])
        drop = pathloss_db(10 * d) - pathloss_db(d)
        assert np.allclose(drop, -36.7, atol=1e-12)

    def test_strictly_decreasing(self):
        d = np.linspace(1.0, 500.0, 1000)
        assert np.all(np.diff(pathloss_db(d)) < 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            pathloss_db(0.0)
        with pytest.raises(ConfigError):
            pathloss_db(-3.0)


class TestPlacement:
    def test_single_ap_at_centroid(self):
        assert np.allclose(ap_grid(1, 500.0), [[250.0, 250.0]])

    def test_grid_inside_area(self, cfg):
        aps = ap_grid(cfg.L, cfg.area_side)
        assert aps.shape == (cfg.L, 2)
        assert np.all((aps >= 0) & (aps <= cfg.area_side))

    def test_distance_floor(self):
        cfg = NetworkConfig(K=50, d_min=30.0)
        pl = generate_placement(cfg, np.random.default_rng(0))
        assert np.all(pl.distances >= cfg.d_min)
        assert np.all((pl.user_positions >= 0)
                      & (pl.user_positions <= cfg.area_side))

    def test_deterministic_under_seed(self, cfg):
        a = generate_placement(cfg, np.random.default_rng(42))
        b = generate_placement(cfg, np.random.default_rng(42))
        assert np.array_equal(a.user_positions, b.user_positions)
        assert np.array_equal(a.distances, b.distances)


class TestSpatialCovariance:
    def test_uncorrelated_is_scaled_identity(self, cfg):
        R = build_spatial_covariance(cfg, 2.5)
        assert np.allclose(R, 2.5 * np.eye(cfg.N))

    def test_exponential_rho_zero_degenerates(self):
        cfg = NetworkConfig(corr_model="exponential", rho=0.0)
        R = build_spatial_covariance(cfg, 1.3)
        assert np.allclose(R, 1.3 * np.eye(cfg.N))

    def test_exponential_offdiagonal(self):
        cfg = NetworkConfig(N=2, K=10, corr_model="exponential", rho=0.5)
        R = build_spatial_covariance(cfg, 2.0)
        assert R[0, 1] == pytest.approx(0.5 * 2.0)

    def test_trace_normalization(self):
        for model in ("uncorrelated", "exponential"):
            cfg = NetworkConfig(corr_model=model, rho=0.7)
            R = build_spatial_covariance(cfg, 0.031)
            assert np.trace(R).real == pytest.approx(cfg.N * 0.031, rel=1e-12)

    def test_hermitian_psd(self):
        cfg = NetworkConfig(N=6, corr_model="exponential", rho=0.9)
        R = build_spatial_covariance(cfg, 1.0)
        assert np.max(np.abs(R - R.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(R).min() >= -1e-10 * np.trace(R).real

    def test_rejects_bad_rho(self):
        with pytest.raises(ConfigError):
            NetworkConfig(corr_model="exponential", rho=1.0)
        with pytest.raises(ConfigError):
            NetworkConfig(corr_model="exponential", rho=-0.1)


class TestDrawChannel:
    def test_shapes_and_covariance_traces(self, cfg, rng):
        pl = generate_placement(cfg, rng)
        ch = draw_channel(cfg, pl, rng)
        assert ch.H.shape == (cfg.L, cfg.N, cfg.K)
        assert ch.beta.shape == (cfg.L, cfg.K)
        for l in range(cfg.L):
            for k in range(cfg.K):
                R = build_spatial_covariance(cfg, ch.beta[l, k])
                tr = np.trace(R).real
                assert tr == pytest.approx(cfg.N * ch.beta[l, k], rel=1e-12)

    def test_sample_covariance_matches_model(self):
        # law of large numbers against the generating covariance, 1e5 draws
        # through the same correlated-draw math as draw_channel
        from cfchain.geometry import _correlation_sqrt, build_spatial_covariance
        cfg = NetworkConfig(L=1, N=4, K=10, corr_model="exponential", rho=0.6)
        rng = np.random.default_rng(5)
        beta = 0.37
        sqrtT = _correlation_sqrt(cfg)
        h = np.sqrt(beta) * (sqrtT @ crandn(rng, cfg.N, 100_000))
        R_emp = (h @ h.conj().T) / h.shape[1]
        R_true = build_spatial_covariance(cfg, beta)
        rel = np.linalg.norm(R_emp - R_true) / np.linalg.norm(R_true)
        assert rel < 0.02

    def test_end_to_end_draws_match_covariance(self):
        # smaller-sample check through draw_channel itself
        cfg = NetworkConfig(L=1, N=4, K=10, corr_model="exponential", rho=0.6)
        pl = generate_placement(cfg, np.random.default_rng(5))
        draws = []
        for i in range(4000):
            ch = draw_channel(cfg, pl, np.random.default_rng(1000 + i))
            draws.append(ch.H[0])
        h = np.stack([d[:, 0] for d in draws])  # (n, N) user 0
        R_emp = (h[:, :, None] * h[:, None, :].conj()).mean(axis=0)
        R_true = build_spatial_covariance(cfg, ch.beta[0, 0])
        rel = np.linalg.norm(R_emp - R_true) / np.linalg.norm(R_true)
        assert rel < 0.05

    def test_per_entry_variance_and_mean(self, cfg):
        pl = generate_placement(cfg, np.random.default_rng(9))
        n = 100_000
        rng = np.random.default_rng(10)
        beta = 10.0 ** (pathloss_db(pl.distances) / 10.0)
        # direct large-sample check on one AP-user pair via vectorized draws
        w = crandn(rng, n, cfg.N)
        h = np.sqrt(beta[0, 0]) * w
        var = np.mean(np.abs(h) ** 2, axis=0)
        assert np.allclose(var, beta[0, 0], rtol=0.02)
        mean = h.mean(axis=0)
        assert np.all(np.abs(mean) < 3 * np.sqrt(beta[0, 0] / n))

    def test_deterministic_per_stream(self, cfg):
        pl = generate_placement(cfg, np.random.default_rng(3))
        a = draw_channel(cfg, pl, seed_stream(1, 0, 5, 0, Role.CHANNEL))
        b = draw_channel(cfg, pl, seed_stream(1, 0, 5, 0, Role.CHANNEL))
        assert np.array_equal(a.H, b.H)

    def test_blocks_independent(self, cfg):
        pl = generate_placement(cfg, np.random.default_rng(3))
        a = draw_channel(cfg, pl, seed_stream(1, 0, 0, 0, Role.CHANNEL))
        b = draw_channel(cfg, pl, seed_stream(1, 0, 1, 0, Role.CHANNEL))
        x = a.H.ravel()
        y = b.H.ravel()
        corr = np.abs(np.vdot(x - x.mean(), y - y.mean())) \
            / (np.linalg.norm(x - x.mean()) * np.linalg.norm(y - y.mean()))
        assert corr < 0.2  # 200 entries, just a sanity guard
        assert not np.array_equal(a.H, b.H)


class TestCrandn:
    @pytest.mark.parametrize("shape", ["LNS", "KS", "LNK"])
    def test_draws_are_the_stream_contract(self, cfg, shape):
        # real parts, then imaginary parts, scaled by 1/sqrt(2): the values
        # every seeded run depends on, bit for bit
        dims = tuple({"L": cfg.L, "N": cfg.N, "K": cfg.K, "S": 1000}[c]
                     for c in shape)
        for seed in range(3):
            z = crandn(seed_stream(seed, 0, 0, 0, Role.NOISE), *dims)
            rng = seed_stream(seed, 0, 0, 0, Role.NOISE)
            a, b = rng.standard_normal(dims), rng.standard_normal(dims)
            ref = (a + 1j * b) / np.sqrt(2.0)
            assert z.shape == dims and z.dtype == complex
            assert np.array_equal(z.view(np.uint64), ref.view(np.uint64))


class TestReceiveSignal:
    def test_empirical_covariance(self):
        # option3 calibrates each antenna on E|y_n|^2 = p |h_n|^2 + sigma2;
        # the received samples, formed as the harness forms them, agree
        cfg, H = scenario(seed=2)
        _, Y = received(cfg, H, 50_000, seed=2)
        _, delta = calibrate_dynamic_range(np.mean(np.abs(Y) ** 2, axis=-1),
                                           cfg.alpha, cfg.b_l)
        plan = build_chain_plan(cfg, H, option=Option.OPTION3)
        assert np.allclose(delta, plan.delta, rtol=0.02)


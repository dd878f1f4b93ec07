import numpy as np
import pytest

from cfchain.chain import apply_chain_collect, build_chain_plan
from cfchain.config import MAX_BITS, ConfigError, NetworkConfig, Option
from cfchain.geometry import crandn, draw_channel, generate_placement
from cfchain.harness import Role, seed_stream
from cfchain.quantizer import (InsufficientSamplesError,
                               calibrate_dynamic_range, draw_dither,
                               ks_uniform, noise_covariance,
                               quantize_complex, quantize_midrise,
                               validate_noise_statistics)

GAMMA_GOLDEN = 3.0728851183895034  # sqrt(9 / (1 - 9/192)), hand-derived


class TestCalibration:
    def test_gamma_closed_form(self):
        gamma, _ = calibrate_dynamic_range([2.0], alpha=3.0, b=3)
        assert gamma[0] == pytest.approx(GAMMA_GOLDEN, rel=1e-12)

    def test_step_relation_exact(self):
        gamma, delta = calibrate_dynamic_range([2.0, 0.7, 1e-9], alpha=3.0,
                                               b=5)
        assert np.array_equal(delta, 2.0 * gamma / 2.0 ** 5)

    def test_noise_covariances(self):
        # dither and quantization noise, delta^2/6 per complex stream each
        _, delta = calibrate_dynamic_range([1.0, 4.0], alpha=2.0, b=4)
        assert np.allclose(noise_covariance(delta),
                           2 * np.diag(delta ** 2 / 6.0))

    def test_zero_variance_degenerates(self):
        bank = calibrate_dynamic_range([0.0], alpha=3.0, b=3)
        gamma, delta = bank
        assert gamma[0] == 0.0
        assert delta[0] == 0.0
        f, clipped = _quantize(bank, 0.3 + 0.1j)
        assert f[0] == 0.0
        assert not clipped.any()

    def test_fine_quantization_limit(self):
        # correction factor -> 1, gamma -> alpha * sqrt(var/2)
        gamma, _ = calibrate_dynamic_range([2.0], alpha=3.0, b=20)
        assert gamma[0] == pytest.approx(3.0, rel=1e-5)

    def test_alpha_domain_error(self):
        with pytest.raises(ConfigError, match=r"alpha\^2 < 3\*4\^b"):
            calibrate_dynamic_range([1.0], alpha=4.0, b=1)

    def test_stacked_bits_match_one_at_a_time(self):
        var = np.array([[2.0, 0.7], [1.0, 4.0], [0.5, 0.5]])
        bits = np.array([1, 3, 8])
        gamma, delta = calibrate_dynamic_range(var, alpha=1.5, b=bits)
        for i, b in enumerate(bits):
            one_gamma, one_delta = calibrate_dynamic_range(var[i], alpha=1.5,
                                                           b=b)
            assert np.array_equal(gamma[i], one_gamma)
            assert np.array_equal(delta[i], one_delta)
        with pytest.raises(ConfigError, match=r"alpha\^2 < 3\*4\^b"):
            calibrate_dynamic_range(var, alpha=4.0, b=bits)

    def test_bit_width_bounded_by_float64(self):
        # beyond MAX_BITS the cells of (x + gamma) / delta are not told
        # apart, and 4.0 ** b overflows by b = 512
        calibrate_dynamic_range([1.0], alpha=3.0, b=MAX_BITS)
        for b in (MAX_BITS + 1, 600, [8, 1100]):
            with pytest.raises(ConfigError, match="b_l <= MAX_BITS = 52"):
                calibrate_dynamic_range([1.0], alpha=3.0, b=b)

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigError):
            calibrate_dynamic_range([-1.0], alpha=3.0, b=3)


def _scaled_dither(delta, rng, n):
    """(r, n) dither of steps delta, scaled as the harness scales it."""
    return delta[:, None] * draw_dither(rng, (delta.size, n))


class TestDither:
    def test_zero_delta_gives_zero(self, rng):
        _, delta = calibrate_dynamic_range([0.0, 1.0], alpha=3.0, b=3)
        d = _scaled_dither(delta, rng, 100)
        assert np.all(d[0] == 0)

    def test_moments(self, rng):
        _, delta = calibrate_dynamic_range([2.0], alpha=3.0, b=3)
        n = 1_000_000
        d = _scaled_dither(delta, rng, n)[0]
        delta = delta[0]
        assert np.var(d.real) == pytest.approx(delta ** 2 / 12, rel=0.01)
        assert np.var(d.imag) == pytest.approx(delta ** 2 / 12, rel=0.01)
        assert abs(d.real.mean()) < 3 * delta / np.sqrt(12 * n)

    def test_draws_are_the_stream_contract(self, cfg):
        # real parts, then imaginary parts, bit for bit
        shape = (cfg.L, cfg.r, 1000)
        for seed in range(3):
            D = draw_dither(seed_stream(seed, 0, 0, 0, Role.DITHER), shape)
            rng = seed_stream(seed, 0, 0, 0, Role.DITHER)
            u, v = rng.uniform(-0.5, 0.5, shape), rng.uniform(-0.5, 0.5, shape)
            ref = u + 1j * v
            assert D.shape == shape and D.dtype == complex
            assert np.array_equal(D.view(np.uint64), ref.view(np.uint64))

    def test_bounded_support(self, rng):
        _, delta = calibrate_dynamic_range([1.0, 3.0], alpha=3.0, b=2)
        d = _scaled_dither(delta, rng, 10_000)
        half = delta[:, None] / 2
        assert np.all(np.abs(d.real) <= half)
        assert np.all(np.abs(d.imag) <= half)


def _unit_bank(b):
    """gamma = 1 exactly, for hand-checkable level geometry."""
    gamma, delta = calibrate_dynamic_range([1.0], alpha=3.0, b=b)
    gamma[:] = 1.0
    delta[:] = 2.0 / 2.0 ** b
    return gamma, delta


def _quantize(bank, z):
    """The quantizers of bank = (gamma, delta) on one complex value, as
    the chain applies them: (f, clipped mask)."""
    return quantize_complex(np.array([z]), *bank)


class TestQuantize:
    def test_hand_evaluated_midrise(self):
        bank = _unit_bank(3)
        f, _ = _quantize(bank, 0.1 + 0.1j)
        assert f[0] == pytest.approx(0.125 + 0.125j, abs=1e-15)

    def test_reconstruction_levels_are_fixed_points(self):
        bank = _unit_bank(3)
        delta = bank[1][0]
        levels = -1.0 + (np.arange(8) + 0.5) * delta
        for lv in levels:
            f, _ = _quantize(bank, lv + 1j * lv)
            assert f[0] == pytest.approx(lv + 1j * lv, abs=1e-15)

    def test_saturation(self):
        bank = _unit_bank(3)
        f, clipped = _quantize(bank, 10.0 + 0.0j)
        assert f[0].real == pytest.approx(1.0 - bank[1][0] / 2)
        assert np.count_nonzero(clipped) == 1
        f, clipped = _quantize(bank, -10.0 - 10.0j)
        assert f[0].real == pytest.approx(-1.0 + bank[1][0] / 2)
        assert np.count_nonzero(clipped) == 2

    def test_monotone_per_component(self, rng):
        bank = _unit_bank(4)
        x = np.sort(rng.uniform(-2, 2, 500))
        out = np.array([_quantize(bank, v + 0j)[0][0].real for v in x])
        assert np.all(np.diff(out) >= 0)

    def test_in_range_error_bound(self, rng):
        bank = _unit_bank(5)
        x = rng.uniform(-1, 1, 2000)
        for v in x[:50]:
            f, _ = _quantize(bank, v + 0j)
            assert abs(f[0].real - v) <= bank[1][0] / 2 + 1e-15

    def test_realized_noise_variance(self, rng):
        # unclipped samples: var(eta) -> delta^2/12 per real component
        gamma, delta = calibrate_dynamic_range([2.0], alpha=3.0, b=3)
        n = 100_000
        x = np.sqrt(2.0 / 2.0) * rng.standard_normal(n)  # var 1 per real
        d = rng.uniform(-0.5, 0.5, n) * delta[0]
        z = x + d
        v, clipped = quantize_midrise(
            z, gamma[0] * np.ones(n), delta[0] * np.ones(n))
        eta = (v - z)[~clipped]
        assert np.var(eta) == pytest.approx(delta[0] ** 2 / 12, rel=0.02)

    def test_broadcasting_per_row(self, rng):
        x = rng.normal(0, 1, (4, 100))
        g = np.array([1.0, 2.0, 0.5, 3.0])[:, None]
        d = 2 * g / 8
        v, c = quantize_midrise(x, g, d)
        assert v.shape == x.shape
        for i in range(4):
            vi, ci = quantize_midrise(x[i], g[i, 0] * np.ones(100),
                                      d[i, 0] * np.ones(100))
            assert np.array_equal(v[i], vi)


def _sup_distance(x, delta):
    """sup_x |F_n(x) - F(x)| against the uniform law on [-delta/2, delta/2],
    by counting: the sup is reached at a sample point or just below one."""
    x = np.asarray(x)
    F = np.clip((x + delta / 2) / delta, 0.0, 1.0)
    at = (x[None, :] <= x[:, None]).mean(axis=1)     # F_n(x_j)
    below = (x[None, :] < x[:, None]).mean(axis=1)   # F_n(x_j-)
    return max(np.abs(at - F).max(), np.abs(below - F).max())


class TestKsUniform:
    @pytest.mark.parametrize("kind", ["uniform", "narrow", "shifted", "ties"])
    def test_matches_direct_sup(self, rng, kind):
        delta = 0.3
        x = {"uniform": rng.uniform(-delta / 2, delta / 2, 400),
             "narrow": 0.5 * rng.uniform(-delta / 2, delta / 2, 400),
             "shifted": rng.normal(0.05, 0.1, 400),  # partly off support
             "ties": np.round(rng.uniform(-delta / 2, delta / 2, 400), 2),
             }[kind]
        assert ks_uniform(np.sort(x), delta) == pytest.approx(
            _sup_distance(x, delta), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 9, 1000])
    def test_uniform_quantiles_give_half_step(self, rng, n):
        # points at the (i - 1/2)/n quantiles: D = 1/(2n); ks_uniform
        # takes them sorted, the direct sup in any order
        delta = 0.7
        x = rng.permutation(-delta / 2 + delta * (np.arange(1, n + 1) - 0.5)
                            / n)
        assert ks_uniform(np.sort(x), delta) == pytest.approx(1 / (2 * n),
                                                              rel=1e-9)
        assert _sup_distance(x, delta) == pytest.approx(1 / (2 * n), rel=1e-9)


def _collect_noise(n=100_000, seed=1):
    cfg = NetworkConfig()
    placement = generate_placement(
        cfg, seed_stream(seed, 0, 0, 0, Role.PLACEMENT))
    ch = draw_channel(cfg, placement, seed_stream(seed, 0, 0, 0, Role.CHANNEL))
    plan = build_chain_plan(cfg, ch.H, option=Option.OPTION1)
    rng = seed_stream(seed, 0, 0, 0, Role.NOISE)
    s = np.sqrt(cfg.p) * crandn(rng, cfg.K, n)
    Y = ch.H @ s + np.sqrt(cfg.sigma2) * crandn(rng, cfg.L, cfg.N, n)
    Du = draw_dither(seed_stream(seed, 0, 0, 0, Role.DITHER, option_tag=1),
                     (cfg.L, plan.r, n))
    ap = 1
    _, eta, pre, _ = apply_chain_collect(plan, Y, Du, collect_ap=ap)
    return eta, pre, plan.delta[ap]


class TestNoiseStatistics:
    def test_report_thresholds(self):
        eta, pre, delta = _collect_noise()
        rep = validate_noise_statistics(eta, pre, delta)
        assert rep.ks_re.max() < 0.01
        assert rep.ks_im.max() < 0.01
        assert rep.offdiag_ratio < 0.05
        assert rep.corr_input.max() < 0.02

    def test_insufficient_samples(self):
        eta, pre, delta = _collect_noise(n=2000)
        with pytest.raises(InsufficientSamplesError):
            validate_noise_statistics(eta, pre, delta)

    def test_shape_mismatch(self):
        eta, pre, delta = _collect_noise(n=2000)
        with pytest.raises(ValueError):
            validate_noise_statistics(eta[:2], pre, delta)

import numpy as np
import pytest

from cfchain.chain import apply_chain_collect, build_chain_plan
from cfchain.config import MAX_BITS, ConfigError, Option
from cfchain.harness import Role, seed_stream
from cfchain.quantizer import (InsufficientSamplesError,
                               calibrate_dynamic_range, draw_dither,
                               ks_uniform, quantize_in_steps, step_units,
                               validate_noise_statistics)
from scenario import received, run_chain, scenario, unit_dither


class TestCalibration:
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
    """(r, n) dither of steps delta: the unit dither in input units."""
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
    the chain applies them, in step units: (f, clipped components)."""
    gamma, delta = bank
    inv, levels = step_units(gamma[None], delta[None])
    x = np.array([[z * inv[0, 0]]])
    clipped = quantize_in_steps(x, levels[0])
    return delta * x[0], clipped


def _gamma_domain_midrise(u, gamma, delta):
    """The gamma-domain mid-rise rule the step-unit rule replaced, as the
    oracle: (levels, clipped mask) of real inputs u."""
    v = np.floor((u + gamma) / delta)
    v = (v + 0.5) * delta - gamma
    return (np.clip(v, delta / 2 - gamma, gamma - delta / 2),
            np.abs(u) > gamma)


def _step_midrise(u, gamma, delta):
    """The step-unit rule on real inputs u, one quantizer per value:
    (levels delta*q, clipped mask)."""
    inv, levels = step_units(np.array([[gamma]]), np.array([[delta]]))
    x = (u * inv[0, 0]).astype(complex).reshape(-1, 1, 1)
    clipped = quantize_in_steps(x, np.full(u.size, levels[0]))
    return delta * x.real.ravel(), clipped.astype(bool)


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
        assert clipped == 1
        f, clipped = _quantize(bank, -10.0 - 10.0j)
        assert f[0].real == pytest.approx(-1.0 + bank[1][0] / 2)
        assert clipped == 2

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
        v, clipped = _step_midrise(z, gamma[0], delta[0])
        eta = (v - z)[~clipped]
        assert np.var(eta) == pytest.approx(delta[0] ** 2 / 12, rel=0.02)

    def test_broadcasting_per_row(self, rng):
        # one level count per leading entry: a stacked call equals one
        # call per entry, values and clip counts
        x = rng.normal(0, 4, (4, 2, 50)) + 1j * rng.normal(0, 4, (4, 2, 50))
        levels = np.array([1.0, 2.0, 4.0, 128.0])
        q = x.copy()
        clipped = quantize_in_steps(q, levels)
        assert q.shape == x.shape and clipped.shape == (4,)
        for i in range(4):
            qi = x[i].copy()
            assert quantize_in_steps(qi, levels[i]) == clipped[i]
            assert np.array_equal(q[i], qi)
        assert clipped[0] > 0

    @pytest.mark.parametrize("b", list(range(1, 9)) + [MAX_BITS])
    def test_matches_the_gamma_domain_rule(self, rng, b):
        # the step-unit rule against the gamma-domain formula it replaced:
        # levels to 1 ulp of gamma and equal clip masks for b <= 8; at
        # MAX_BITS, where the gamma-domain sums themselves round at up to
        # a step, levels within two steps
        gamma, delta = calibrate_dynamic_range([rng.uniform(0.1, 10.0)],
                                               alpha=3.0, b=b)
        g, d = gamma[0], delta[0]
        u = rng.uniform(-1.5 * g, 1.5 * g, 20_000)
        new, clipped = _step_midrise(u, g, d)
        old, clipped_old = _gamma_domain_midrise(u, g, d)
        assert np.array_equal(clipped, clipped_old)
        assert clipped.any() and not clipped.all()
        bound = np.spacing(g) if b <= 8 else 2 * d
        assert np.max(np.abs(new - old)) <= bound


class TestDeadStreams:
    """A stream with delta = 0 forwards zero and counts no clip, and an AP
    whose streams are all dead yields no NaN."""

    @pytest.mark.parametrize("opt", [Option.OPTION1, Option.OPTION2,
                                     Option.OPTION3])
    def test_dead_streams_forward_zero(self, opt):
        cfg, H = scenario(seed=1, bits=3)
        _, Y = received(cfg, H, 256, seed=1)
        plan = build_chain_plan(cfg, H, option=opt)
        plan.gamma[1] = plan.delta[1] = 0.0        # AP 1: all dead
        plan.gamma[2, 0] = plan.delta[2, 0] = 0.0  # AP 2: stream 0 dead
        D = unit_dither(plan, 256, seed=1)
        sh, clips = run_chain(H, plan, Y, D)
        assert np.isfinite(sh).all()
        assert clips[1] == 0 and clips.sum() > 0
        for ap, dead in ((1, slice(None)), (2, 0)):
            sh_c, eta, pre, clips_c = apply_chain_collect(plan, Y, D, ap)
            # eta = f - z with z = pre + 0 * dither: f is zero
            assert np.array_equal(eta[dead], -pre[dead])
            assert np.array_equal(clips_c, clips)
            assert np.array_equal(sh_c, sh)


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


def _collect_noise(n):
    """(eta, pre, delta) of AP 1's quantizers on n samples of option1."""
    cfg, H = scenario(seed=1)
    plan = build_chain_plan(cfg, H, option=Option.OPTION1)
    _, Y = received(cfg, H, n, seed=1)
    D = unit_dither(plan, n, seed=1)
    _, eta, pre, _ = apply_chain_collect(plan, Y, D, collect_ap=1)
    return eta, pre, plan.delta[1]


class TestNoiseStatistics:
    def test_insufficient_samples(self):
        eta, pre, delta = _collect_noise(2000)
        with pytest.raises(InsufficientSamplesError):
            validate_noise_statistics(eta, pre, delta)

    def test_shape_mismatch(self):
        eta, pre, delta = _collect_noise(2000)
        with pytest.raises(ValueError):
            validate_noise_statistics(eta[:2], pre, delta)

import numpy as np
import pytest

from cfchain.config import NetworkConfig
from cfchain.geometry import crandn
from cfchain.metrics import (Cell, ber_sums, fronthaul_bitrate,
                             multiplier_width, nmse_sums)


def _nmse_cell(s, s_hat):
    return Cell(*nmse_sums(s, s_hat), count=s.shape[-1])


def _ber_cell(bits, s_hat):
    return Cell(*ber_sums(bits, s_hat), count=bits.shape[-1])


class TestNmseAccumulator:
    def test_perfect_estimate(self, rng):
        s = crandn(rng, 4, 100)
        assert _nmse_cell(s, s).value("nmse") == 0.0

    def test_zero_estimator_scores_one(self, rng):
        s = crandn(rng, 4, 100)
        cell = _nmse_cell(s, np.zeros_like(s))
        assert cell.value("nmse") == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(cell.per_user(), 1.0)

    def test_order_invariance(self, rng):
        s = crandn(rng, 4, 60)
        sh = crandn(rng, 4, 60)
        a = _nmse_cell(s, sh)
        b = Cell.zeros(4)
        for j in rng.permutation(60):
            b.merge(_nmse_cell(s[:, j:j + 1], sh[:, j:j + 1]))
        assert np.allclose(a.per_user(), b.per_user(), rtol=1e-12)
        assert a.count == b.count

    def test_merge_equals_concatenation(self, rng):
        s = crandn(rng, 4, 80)
        sh = crandn(rng, 4, 80)
        whole = _nmse_cell(s, sh)
        left = _nmse_cell(s[:, :30], sh[:, :30])
        left.merge(_nmse_cell(s[:, 30:], sh[:, 30:]))
        assert np.allclose(left.per_user(), whole.per_user(), rtol=1e-12)
        assert left.count == whole.count


class TestBerAccumulator:
    def test_perfect_and_inverted(self):
        bits = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]])
        s = (2.0 * bits - 1.0).astype(complex)
        assert _ber_cell(bits, s).value("ber") == 0.0
        assert _ber_cell(bits, -s).value("ber") == 1.0

    def test_pure_noise_is_half(self, rng):
        n = 100_000
        bits = rng.integers(0, 2, (1, n))
        noise = crandn(rng, 1, n)  # decision independent of bits
        assert _ber_cell(bits, noise).value("ber") == pytest.approx(
            0.5, abs=0.01)

    def test_range(self, rng):
        cell = _ber_cell(rng.integers(0, 2, (2, 500)), crandn(rng, 2, 500))
        assert 0.0 <= cell.value("ber") <= 1.0


class TestBitAccounting:
    def test_single_product(self):
        width, b_s = multiplier_width(5, 2, 1)
        assert width == 5 + 2 + 1
        assert b_s == 2 * width

    def test_affine_in_bits(self):
        for b in range(1, 9):
            w0, _ = multiplier_width(8, b, 4)
            w1, _ = multiplier_width(8, b + 1, 4)
            assert w1 - w0 == 1

    def test_degenerate_zero(self):
        cfg = NetworkConfig(tau_d=0, b_e=0)
        rate, _ = fronthaul_bitrate(cfg, b_l=3)
        assert rate == 0.0

    def test_monotone_in_every_argument(self):
        base = NetworkConfig()
        r0, _ = fronthaul_bitrate(base, b_l=3)
        assert fronthaul_bitrate(NetworkConfig(b_e=base.report_bits + 1), 3)[0] > r0
        assert fronthaul_bitrate(NetworkConfig(tau_d=191), 3)[0] > r0
        assert fronthaul_bitrate(NetworkConfig(K=11), 3)[0] > r0
        # b_c moves the derived b_e too; hold b_e to isolate the multiplier
        assert fronthaul_bitrate(NetworkConfig(b_c=9, b_e=base.report_bits),
                                 3)[0] > r0
        assert fronthaul_bitrate(base, 4)[0] > r0
        assert fronthaul_bitrate(NetworkConfig(N=5), 3)[0] > r0  # r grows

    def test_rate_of_every_validated_tau_d(self):
        # tau_c = 0.3e-3 * 300e3 rounds to 89.99999999999999; validate
        # allows tau_d = 90 within its slack, and owns the constraint
        cfg = NetworkConfig(coherence_time_s=0.3e-3, coherence_bw_hz=300e3,
                            tau_d=90)
        assert cfg.tau_d > cfg.tau_c
        rate, _ = fronthaul_bitrate(cfg, b_l=3)
        assert rate > 0

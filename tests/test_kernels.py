import numpy as np
import pytest

from cfchain.chain import build_chain_plan
from cfchain.config import Option
from cfchain.harness import trial_noise
from cfchain.kernels import apply_chain_collect
from cfchain.presets import preset
from cfchain.quantizer import quantize_in_steps, step_units
from scenario import received, run_chain, scenario, unit_dither

OPTIONS = [Option.OPTION1, Option.OPTION2, Option.OPTION3, Option.NOQUANT]
BITS = np.arange(1, 9)
POWERS_DB = np.asarray(preset("fig5")[1].power_sweep_db, dtype=float)
WIDTHS = np.array([1, 2, 3, 5, 8])  # unequal per-AP bit widths, L = 5


class TestChainKernelBatch:
    """A batch over the sweep axis matches one call per axis point."""

    @staticmethod
    def _check(batched, singles):
        sh_b, clips_b = batched
        assert sh_b.shape[0] == len(singles)
        for i, (sh, clips) in enumerate(singles):
            assert (np.max(np.abs(sh_b[i] - sh))
                    <= 1e-10 * np.max(np.abs(sh)))
            assert np.array_equal(clips_b[i], clips)

    @pytest.mark.parametrize("opt", OPTIONS)
    def test_bit_sweep_with_shared_samples(self, opt):
        cfg, H = scenario()
        _, Y = received(cfg, H, 1024)
        bits = np.repeat(BITS[:, None], cfg.L, axis=1)
        plan = build_chain_plan(cfg, H, option=opt, bits=bits)
        U = unit_dither(plan, Y.shape[2])
        batched = run_chain(H, plan, Y, U)
        # a lossless plan ignores the bits: one plan, on a unit axis
        singles = [run_chain(H, build_chain_plan(cfg, H, option=opt,
                                                    bits=b), Y, U)
                   for b in (bits if opt.quantized else bits[:1])]
        self._check(batched, singles)
        if opt.quantized:
            assert batched[1][0].sum() > 0  # one bit clips: counts compared

    @pytest.mark.parametrize("opt", OPTIONS)
    def test_power_sweep_with_stacked_samples(self, opt):
        cfg, H = scenario()
        S = 128
        p_lin = 10.0 ** (POWERS_DB / 10.0)
        s, _ = received(cfg, H, S)
        Y = (np.sqrt(p_lin / cfg.p)[:, None, None, None] * (H @ s)
             + trial_noise(cfg, 0, 0, 0, S))
        plan = build_chain_plan(cfg, H, option=opt, p=p_lin)
        U = unit_dither(plan, S)
        batched = run_chain(H, plan, Y, U)
        singles = [run_chain(H, build_chain_plan(cfg, H, option=opt,
                                                    p=p), Y[i], U)
                   for i, p in enumerate(p_lin)]
        self._check(batched, singles)


class TestUnitDitherContract:
    """The kernel takes the unit dither and adds it in step units."""

    def test_lossless_needs_no_dither(self):
        cfg, H = scenario()
        _, Y = received(cfg, H, 64)
        bits = np.repeat(BITS[:, None], cfg.L, axis=1)
        plan = build_chain_plan(cfg, H, option=Option.NOQUANT, bits=bits)
        zeros = np.zeros(plan.delta.shape + (Y.shape[2],), complex)
        sh_none, clips_none = run_chain(H, plan, Y)
        sh_zero, clips_zero = run_chain(H, plan, Y, zeros)
        assert np.array_equal(sh_none, sh_zero)
        assert np.array_equal(clips_none, clips_zero)

    @pytest.mark.parametrize("opt", OPTIONS[:3])
    def test_shared_dither_equals_its_broadcast(self, opt):
        cfg, H = scenario()
        _, Y = received(cfg, H, 64)
        bits = np.repeat(BITS[:, None], cfg.L, axis=1)
        plan = build_chain_plan(cfg, H, option=opt, bits=bits)
        U = unit_dither(plan, Y.shape[2])
        sh, clips = run_chain(H, plan, Y, U)
        sh_b, clips_b = run_chain(H, plan, Y,
                                  np.broadcast_to(U, (len(BITS),) + U.shape))
        assert np.array_equal(sh, sh_b)
        assert np.array_equal(clips, clips_b)
        assert clips.sum() > 0  # one bit clips: the counts are compared


class TestFoldedChain:
    """Every mode is one evaluation, s = Bc F: modes 0, 2 and 3 through
    the chain's combiner, option1 through its stacked V_l with each AP's
    prediction subtracted in the loop. Each is checked against a running
    LMMSE chain written here."""

    @staticmethod
    def _plan_and_samples(opt, sweep, p_db, S=256):
        cfg, H = scenario(p_db=p_db)
        s, Y = received(cfg, H, S)
        if sweep == "bits":
            plan = build_chain_plan(cfg, H, option=opt, bits=np.repeat(
                BITS[:, None], cfg.L, axis=1))
        elif sweep == "power":
            p_lin = 10.0 ** ((p_db + np.array([-20.0, -10.0, 0.0])) / 10.0)
            Y = (np.sqrt(p_lin / cfg.p)[:, None, None, None] * (H @ s)
                 + trial_noise(cfg, 0, 0, 0, S))
            plan = build_chain_plan(cfg, H, option=opt, p=p_lin)
        elif sweep == "widths":
            plan = build_chain_plan(cfg, H, option=opt, bits=WIDTHS)
        else:
            plan = build_chain_plan(cfg, H, option=opt)
        return H, plan, Y, unit_dither(plan, S) if opt.quantized else None

    @staticmethod
    def _running_lmmse(plan, Y, D):
        """(s, clips): the LMMSE update s <- s + V_l (f_l - A_l^H H_l s)
        run AP by AP over the forwarded observations
        f_l = pre_l + delta_l D_l + eta_l (pre_l when lossless) that a
        collect call at each AP reports, and the clip counts of those
        calls, which must agree."""
        batch = np.broadcast_shapes(plan.AH.shape[:-3], Y.shape[:-3])
        s = np.zeros(batch + plan.V.shape[-2:-1] + Y.shape[-1:],
                     dtype=complex)
        counts = []
        for l in range(plan.H.shape[-3]):
            _, eta, pre, clips = apply_chain_collect(plan, Y, D, l)
            f = pre
            if plan.option.quantized:
                f = pre + plan.delta[..., l, :, None] * D[..., l, :, :] + eta
            G_l = plan.AH[..., l, :, :] @ plan.H[..., l, :, :]
            s = s + plan.V[..., l, :, :] @ (f - G_l @ s)
            counts.append(clips)
        assert all(np.array_equal(c, counts[0]) for c in counts)
        return s, counts[0]

    @pytest.mark.parametrize("p_db", [-10.0, 40.0, 80.0])
    @pytest.mark.parametrize("sweep", ["single", "bits", "power", "widths"])
    @pytest.mark.parametrize("opt", OPTIONS[1:])
    def test_fold_matches_the_running_estimate(self, opt, sweep, p_db):
        H, plan, Y, D = self._plan_and_samples(opt, sweep, p_db)
        folded, clips = run_chain(H, plan, Y, D)
        running, clips_r = self._running_lmmse(plan, Y, D)
        assert folded.shape == running.shape
        assert (np.max(np.abs(folded - running))
                <= 1e-12 * np.max(np.abs(running)))
        assert np.array_equal(clips, clips_r)

    @staticmethod
    def _option1_chain(plan, Y, D):
        """(s, clips, pres): option1's chain written AP by AP, quantizing
        x = A_l^H (y_l - H_l s) / delta + D_l and refining
        s <- s + delta V_l q, with each AP's input A_l^H (y_l - H_l s)."""
        inv, levels = step_units(plan.bits, plan.delta)
        batch = np.broadcast_shapes(plan.AH.shape[:-3], Y.shape[:-3])
        s = np.zeros(batch + plan.V.shape[-2:-1] + Y.shape[-1:],
                     dtype=complex)
        clips, pres = [], []
        for l in range(plan.H.shape[-3]):
            pre = plan.AH[..., l, :, :] @ (Y[..., l, :, :]
                                           - plan.H[..., l, :, :] @ s)
            x = pre * inv[..., l, :, None] + D[..., l, :, :]
            clips.append(quantize_in_steps(x, levels[..., l]))
            s = s + (plan.V[..., l, :, :]
                     * plan.delta[..., l, None, :]) @ x
            pres.append(pre)
        return s, np.stack(clips, axis=-1), pres

    @pytest.mark.parametrize("p_db", [-10.0, 40.0, 80.0])
    @pytest.mark.parametrize("sweep", ["single", "bits", "power", "widths"])
    def test_option1_matches_its_running_chain(self, sweep, p_db):
        H, plan, Y, D = self._plan_and_samples(Option.OPTION1, sweep, p_db)
        sh, clips = run_chain(H, plan, Y, D)
        s, clips_r, pres = self._option1_chain(plan, Y, D)
        assert sh.shape == s.shape
        assert np.max(np.abs(sh - s)) <= 1e-12 * np.max(np.abs(s))
        assert np.array_equal(clips, clips_r)
        for l, pre in enumerate(pres):
            _, _, pre_c, _ = apply_chain_collect(plan, Y, D, l)
            assert (np.max(np.abs(pre_c - pre))
                    <= 1e-12 * np.max(np.abs(pre)))

    @pytest.mark.parametrize("sweep", ["single", "bits", "power", "widths"])
    @pytest.mark.parametrize("opt", OPTIONS)
    def test_collect_call_equals_the_sweep_call(self, opt, sweep):
        H, plan, Y, D = self._plan_and_samples(opt, sweep, -10.0)
        _, clips = run_chain(H, plan, Y, D)
        sh_c, _, _, clips_c = apply_chain_collect(plan, Y, D, collect_ap=0)
        assert sh_c is None  # a collect call forms no estimate
        assert np.array_equal(clips, clips_c)

    def test_lossless_collect_reports_the_forwarded_projection(self):
        # under the fold, AP l forwards A_l^H y_l, with no quantization noise
        _, plan, Y, _ = self._plan_and_samples(Option.NOQUANT, "single", 40.0)
        for l in range(plan.H.shape[-3]):
            _, eta, pre, _ = apply_chain_collect(plan, Y, None, l)
            assert not eta.any()
            assert np.array_equal(pre, plan.AH[l] @ Y[l])


class TestStepUnits:
    """The kernel quantizes in units of each stream's step, with one level
    count per (batch entry, AP) from the plan's bits."""

    @pytest.mark.parametrize("rho", [0.0, 0.9])
    @pytest.mark.parametrize("sweep", ["single", "bits", "power", "widths"])
    @pytest.mark.parametrize("opt", OPTIONS[:3])
    def test_plan_levels_are_exact_powers_of_two(self, opt, sweep, rho):
        # the plan keeps the bits each sweep passed, broadcast to its
        # batch, and each AP's level count is exactly 2^(b-1)
        cfg, H = scenario(rho=rho)
        if sweep == "bits":
            bits = np.repeat(BITS[:, None], cfg.L, axis=1)
            plan = build_chain_plan(cfg, H, option=opt, bits=bits)
        elif sweep == "power":
            bits = cfg.b_l
            plan = build_chain_plan(cfg, H, option=opt,
                                    p=10.0 ** (POWERS_DB / 10.0))
        else:
            bits = WIDTHS if sweep == "widths" else cfg.b_l
            plan = build_chain_plan(cfg, H, option=opt, bits=bits)
        expected = np.broadcast_to(2.0 ** (np.asarray(bits) - 1),
                                   plan.bits.shape)
        _, levels = step_units(plan.bits, plan.delta)
        assert np.array_equal(levels, expected)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The sweeps use all
available cores; results are worker-count independent (criterion 8).
"""

import os
import sys
import time

import numpy as np
import pytest

from cfchain import kernels
from cfchain.chain import build_chain_plan
from cfchain.cli import main
from cfchain.config import NetworkConfig, Option
from cfchain.geometry import crandn, draw_channel, generate_placement
from cfchain.harness import run_experiment, trial_channels, trial_samples
from cfchain.metrics import mean_halfwidth
from cfchain.presets import preset
from cfchain.selftest import GOLDEN_REL, check_covariance_monotonicity, \
    check_formula_goldens, check_noise_statistics, check_oracle_equivalence

WORKERS = min(8, os.cpu_count() or 1)


@pytest.fixture
def report(capsys):
    """One pass/fail line per criterion, printed past pytest's capture."""
    def emit(num, name, ok, detail):
        line = (f"[criterion {num}] {name}: "
                f"{'PASS' if ok else 'FAIL'} ({detail})")
        with capsys.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
    return emit


def _paired_diff_hw(res, opt_hi, opt_lo, idx):
    return mean_halfwidth(res.placement_values(opt_hi, idx)
                          - res.placement_values(opt_lo, idx))


def test_criterion_1_oracle_equivalence(report):
    t0 = time.perf_counter()
    chk = check_oracle_equivalence()
    elapsed = time.perf_counter() - t0
    report(1, "lossless chain equals centralized estimator",
           chk.ok and elapsed < 10.0, f"{chk.detail}, {elapsed:.1f}s")
    assert chk.ok, chk.detail
    assert elapsed < 10.0


def _noise_criterion(report, num, name, preset_name):
    # fig2 and fig3 draw the same noise, so each criterion holds its
    # run to every noise bound, by the selftest's one check
    t0 = time.perf_counter()
    cfg, plan = preset(preset_name)
    chk = check_noise_statistics(run_experiment(plan, cfg).stat_report)
    elapsed = time.perf_counter() - t0
    report(num, name, chk.ok and elapsed < 30.0,
           f"{chk.detail}, {elapsed:.1f}s")
    assert chk.ok, chk.detail
    assert elapsed < 30.0


def test_criterion_2_noise_cdf(report):
    _noise_criterion(report, 2, "quantization-noise CDF is uniform", "fig2")


def test_criterion_3_noise_covariance_diagonality(report):
    _noise_criterion(report, 3, "quantization-noise covariance is diagonal",
                     "fig3")


def _raw_quantization_reference(cfg, b, n_placements=100, n_samples=4000):
    """Per-placement NMSE of option2 and option3 at `b` bits from a
    reference that shares no code with the plan, the kernels or the
    additive-noise model. Each AP quantizes its raw received vector, in
    the eigenbasis of its covariance (option2) or element-wise (option3),
    with a dithered mid-rise quantizer written out here and calibrated by
    the closed form in the quantizer module's docstring. For these two
    options the chain's estimate is linear in the APs' quantized outputs,
    so the reference scores the best linear estimator of s from all of
    them, fitted on half of the samples and scored on the other half."""
    rng = np.random.default_rng(1)
    L, N, K, S = cfg.L, cfg.N, cfg.K, n_samples
    corr = 1.0 - cfg.alpha ** 2 / (3.0 * 4.0 ** b)

    def quantize(x, var):
        gamma = np.sqrt(cfg.alpha ** 2 / corr * var / 2.0)[:, None]
        delta = 2.0 * gamma / 2 ** b
        top = gamma - delta / 2.0  # outermost reconstruction level

        def q(v):
            v = v + delta * rng.uniform(-0.5, 0.5, v.shape)
            return np.clip(delta * (np.floor(v / delta) + 0.5), -top, top)
        return q(x.real) + 1j * q(x.imag)

    nmse = {"option2": [], "option3": []}
    fit, score = slice(0, S // 2), slice(S // 2, S)
    for _ in range(n_placements):
        H = draw_channel(cfg, generate_placement(cfg, rng), rng).H
        s = np.sqrt(cfg.p) * crandn(rng, K, S)
        Y = np.einsum("lnk,ks->lns", H, s) \
            + np.sqrt(cfg.sigma2) * crandn(rng, L, N, S)
        for name, out in nmse.items():
            F = []
            for l in range(L):
                R_y = cfg.p * H[l] @ H[l].conj().T + cfg.sigma2 * np.eye(N)
                if name == "option2":
                    lam, U = np.linalg.eigh(R_y)
                    F.append(quantize(U.conj().T @ Y[l], lam))
                else:
                    F.append(quantize(Y[l], np.diag(R_y).real))
            F = np.concatenate(F)
            Ff = F[:, fit]
            W = np.linalg.solve(Ff @ Ff.conj().T,
                                Ff @ s[:, fit].conj().T).conj().T
            e = s[:, score] - W @ F[:, score]
            out.append(np.mean(np.sum(np.abs(e) ** 2, axis=1)
                               / np.sum(np.abs(s[:, score]) ** 2, axis=1)))
    return {name: np.array(v) for name, v in nmse.items()}


@pytest.mark.slow
def test_criterion_4_nmse_vs_bits_ordering(report):
    t0 = time.perf_counter()
    cfg, plan = preset("fig4")
    res = run_experiment(plan, cfg, workers=WORKERS)
    elapsed = time.perf_counter() - t0

    violations = []
    for i, b in enumerate(res.axis_values):
        v1 = res.value("option1", i)
        v2 = res.value("option2", i)
        v3 = res.value("option3", i)
        # at b_l = 1 option3 is checked against the reference below
        ordered = v1 <= v2 if b == 1 else v1 <= v2 <= v3
        if not ordered:
            violations.append(
                f"b_l={b}: option1={v1:.5f} option2={v2:.5f} "
                f"option3={v3:.5f}")
    strict_ok = True
    for b in (2, 3, 4):
        i = res.axis_values.index(b)
        d21, hw21 = _paired_diff_hw(res, "option2", "option1", i)
        d32, hw32 = _paired_diff_hw(res, "option3", "option2", i)
        if not (d21 >= 2 * hw21 and d32 >= 2 * hw32):
            strict_ok = False
            violations.append(f"b_l={b} not strictly separated")

    # At b_l = 1 inter-AP de-correlation must still help: option1 below
    # option2, separated as at 2-4 bits. Between option2 and option3 the
    # expected sign comes from the independent reference: at one bit the
    # dithered quantizer's noise is several times each stream's variance
    # whatever the basis, and element-wise quantization comes out ahead.
    # fig4 preset: chain option1/2/3 0.8911 / 0.8951 / 0.8675, paired
    # 3-2 = -0.0276 +- 0.0015; reference option2/3 0.8955 / 0.8685,
    # 3-2 = -0.0270 +- 0.0018. At b_l = 2 the reference gives +0.0133 +-
    # 0.0057, the paper's order, as the chain does.
    i1 = res.axis_values.index(1)
    d21, hw21 = _paired_diff_hw(res, "option2", "option1", i1)
    if not d21 >= 2 * hw21:
        violations.append(f"b_l=1 option2-option1 = {d21:+.4f} not "
                          f"separated (hw {hw21:.4f})")
    ref = _raw_quantization_reference(cfg, 1)
    d_ref, hw_ref = mean_halfwidth(ref["option3"] - ref["option2"])
    d32, hw32 = _paired_diff_hw(res, "option3", "option2", i1)
    if not (abs(d_ref) >= 2 * hw_ref and abs(d32) >= 2 * hw32
            and np.sign(d32) == np.sign(d_ref)):
        violations.append(f"b_l=1 option3-option2 = {d32:+.4f} +- "
                          f"{hw32:.4f}, reference {d_ref:+.4f} +- "
                          f"{hw_ref:.4f}")
    b1 = ("b1 option1/2/3 " + "/".join(
        f"{res.value(n, i1):.4f}" for n in ("option1", "option2", "option3"))
        + f", reference option2/3 {ref['option2'].mean():.4f}/"
        f"{ref['option3'].mean():.4f}")

    i8 = res.axis_values.index(8)
    nq = res.value("noquant", i8)
    gap = abs(res.value("option1", i8) - nq) / nq
    ok = not violations and strict_ok and gap < 0.05 and elapsed < 600.0
    report(4, "per-bit ordering of processing sequences", ok,
            f"{len(violations)} ordering violations"
            f"{(': ' + '; '.join(violations)) if violations else ''}, "
            f"{b1}, "
            f"b8 gap to lossless {gap:.3%}, {elapsed:.0f}s")
    assert gap < 0.05
    assert strict_ok
    assert elapsed < 600.0
    assert not violations, "; ".join(violations)


@pytest.mark.slow
def test_criterion_5_ber_vs_power(report):
    t0 = time.perf_counter()
    cfg, plan = preset("fig5")
    res = run_experiment(plan, cfg, workers=WORKERS)
    elapsed = time.perf_counter() - t0

    problems = []
    n_axis = len(res.axis_values)
    for opt in res.options:
        vals = np.array([res.value(opt, i) for i in range(n_axis)])
        hws = np.array([res.halfwidth(opt, i) for i in range(n_axis)])
        for i in range(n_axis - 1):
            if vals[i + 1] > vals[i] + hws[i] + hws[i + 1]:
                problems.append(f"{opt} increases at "
                                f"p={res.axis_values[i + 1]:g} dB")
    for i, p_db in enumerate(res.axis_values):
        v0 = res.value("noquant", i)
        v1 = res.value("option1", i)
        v2 = res.value("option2", i)
        v3 = res.value("option3", i)
        if not (v1 <= v2 <= v3):
            problems.append(f"option ordering broken at p={p_db:g} dB")
        if not (v0 <= min(v1, v2, v3)):
            problems.append(f"lossless not lowest at p={p_db:g} dB")
    ok = not problems and elapsed < 900.0
    report(5, "BER curves: monotone, ordered, lossless lowest", ok,
            f"{len(problems)} violations"
            f"{(': ' + '; '.join(problems)) if problems else ''}, "
            f"{elapsed:.0f}s")
    assert elapsed < 900.0
    assert not problems, "; ".join(problems)


def test_criterion_6_covariance_recursion(report):
    chk = check_covariance_monotonicity(10_000)

    # lossless chain: realized mean squared error matches trace(C_L)
    cfg = NetworkConfig()
    H, = trial_channels(cfg, 1, [(0, 0)])
    plan = build_chain_plan(cfg, H, option=Option.NOQUANT)
    s, Y = trial_samples(cfg, 1, 0, 0, H, 10_000)
    sh, _ = kernels.apply_chain(H, plan.AH, plan.V, plan.gamma, plan.delta,
                                Y, None, 0, False)
    emp = float(np.mean(np.sum(np.abs(s - sh) ** 2, axis=0)))
    mc_rel = abs(emp - plan.traces[-1]) / plan.traces[-1]

    report(6, "error-covariance recursion sane", chk.ok and mc_rel < 0.03,
           f"{chk.detail}, MC-vs-trace {mc_rel:.3%}")
    assert chk.ok, chk.detail
    assert mc_rel < 0.03


def test_criterion_7_formula_goldens(report):
    chk = check_formula_goldens()
    report(7, f"closed-form goldens at {GOLDEN_REL:g}", chk.ok, chk.detail)
    assert chk.ok, chk.detail


def test_criterion_8_worker_determinism(tmp_path, report):
    t0 = time.perf_counter()
    outs = {}
    for tag, workers in (("a", 1), ("b", 8)):
        out = tmp_path / f"fig2_{tag}"
        assert main(["preset", "fig2", "--out", str(out),
                     "--workers", str(workers)]) == 0
        outs[tag] = out
    fig2_same = all(
        (outs["a"] / f).read_bytes() == (outs["b"] / f).read_bytes()
        for f in sorted(os.listdir(outs["a"])) if f.endswith(".csv"))

    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text("""
[plan]
kind = nmse_vs_bits
bits_sweep = 2, 5
n_placements = 16
n_blocks = 2
n_samples = 40
""")
    sweep = {}
    for tag, workers in (("a", 1), ("b", 8)):
        out = tmp_path / f"sweep_{tag}"
        assert main(["run", str(cfgfile), "--out", str(out),
                     "--workers", str(workers)]) == 0
        sweep[tag] = (out / "nmse_vs_bits.csv").read_bytes()
    sweep_same = sweep["a"] == sweep["b"]
    elapsed = time.perf_counter() - t0
    ok = fig2_same and sweep_same
    report(8, "worker count never changes CSV bytes", ok,
            f"noise preset identical: {fig2_same}, parallel sweep "
            f"identical: {sweep_same}, {elapsed:.0f}s")
    assert fig2_same
    assert sweep_same

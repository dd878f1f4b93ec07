"""Built-in invariant suite behind the `selftest` CLI subcommand.

Each check returns (name, passed, detail). The fast mode trims sample
counts so the suite finishes in a few seconds; thresholds that depend on
sample size are relaxed accordingly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import kernels
from .chain import build_chain_plan, centralized_mmse_oracle
from .config import NetworkConfig, Option
from .geometry import crandn, draw_channel, generate_placement
from .harness import Role, run_experiment, seed_stream
from .metrics import fronthaul_bitrate, multiplier_width
from .presets import preset
from .quantizer import calibrate_dynamic_range


def check_oracle_equivalence(fast: bool = False):
    """Lossless chain must reproduce the batch LMMSE on stacked channels."""
    cfg = NetworkConfig()
    n_inst = 20 if fast else 100
    worst = 0.0
    for i in range(n_inst):
        placement = generate_placement(
            cfg, seed_stream(1, i, 0, 0, Role.PLACEMENT))
        ch = draw_channel(cfg, placement,
                          seed_stream(1, i, 0, 0, Role.CHANNEL))
        rng = seed_stream(1, i, 0, 0, Role.NOISE)
        s = np.sqrt(cfg.p) * crandn(rng, cfg.K)
        y = ch.H @ s + np.sqrt(cfg.sigma2) * crandn(rng, cfg.L, cfg.N)
        plan = build_chain_plan(cfg, ch.H, option=Option.NOQUANT)
        sh, _ = kernels.apply_chain(
            ch.H, plan.AH, plan.V, plan.gamma, plan.delta, y[:, :, None],
            None, 0, False)
        ref = centralized_mmse_oracle(ch.H, y, cfg.p, cfg.sigma2)
        worst = max(worst, float(np.max(np.abs(sh[:, 0] - ref))))
    ok = worst < 1e-9
    return ("oracle equivalence (lossless chain vs batch LMMSE)", ok,
            f"max |diff| = {worst:.3e} over {n_inst} instances")


def check_noise_statistics(fast: bool = False):
    """Quantization noise of the fig2 preset run (20 000 samples in fast
    mode): uniform CDF, diagonal covariance, input-free."""
    cfg, plan = preset("fig2")
    rep = run_experiment(replace(plan, n_samples=20_000) if fast else plan,
                         cfg).stat_report
    ks_lim = 0.01 if not fast else 0.02
    ok = (rep.ks_re.max() < ks_lim and rep.ks_im.max() < ks_lim
          and rep.offdiag_ratio < 0.05 and rep.corr_input.max() < 0.02)
    return ("quantization-noise statistics (CDF, covariance, decorrelation)",
            ok,
            f"KS<= {max(rep.ks_re.max(), rep.ks_im.max()):.4f}, "
            f"offdiag {rep.offdiag_ratio:.4f}, "
            f"corr {rep.corr_input.max():.4f} at n={rep.n_samples}")


def check_covariance_monotonicity(fast: bool = False):
    """trace(C) never increases along the chain; C stays PSD. Chain i runs
    option i % 4, and each option's chains are planned in one call."""
    cfg = NetworkConfig()
    n_runs = 100 if fast else 500
    H = np.stack([draw_channel(cfg, generate_placement(
        cfg, seed_stream(1, i, 0, 0, Role.PLACEMENT)),
        seed_stream(1, i, 1, 0, Role.CHANNEL)).H
        for i in range(n_runs)])
    worst_inc, worst_eig = -np.inf, np.inf
    for k, option in enumerate(Option):
        plan = build_chain_plan(cfg, H[k::4], option=option)
        inc = np.max(np.diff(plan.traces), axis=-1) / plan.traces[:, 0]
        worst_inc = max(worst_inc, float(inc.max()))
        for C in plan.covariances:
            ev = (np.linalg.eigvalsh(C).min(axis=-1)
                  / np.trace(C, axis1=-2, axis2=-1).real)
            worst_eig = min(worst_eig, float(ev.min()))
    ok = worst_inc <= 1e-8 and worst_eig >= -1e-8
    return ("error-covariance recursion (monotone trace, PSD)", ok,
            f"max trace increase {worst_inc:.2e}, "
            f"min eig/trace {worst_eig:.2e} over {n_runs} chains")


def check_formula_goldens(fast: bool = False):
    """Closed-form arithmetic pinned to hand-computed values."""
    from .geometry import pathloss_db
    checks = []
    checks.append(abs(pathloss_db(1.0) + 30.5) < 1e-12)
    checks.append(abs(pathloss_db(100.0) + 103.9) < 1e-12)
    gamma, delta = calibrate_dynamic_range([2.0], 3.0, 3)
    checks.append(abs(gamma[0] - 3.0 * (1 - 9 / 192) ** -0.5) < 1e-12)
    checks.append(abs(delta[0] - 2 * gamma[0] / 8) < 1e-15)
    width, b_s = multiplier_width(8, 3, 4)
    checks.append(width == 18 and b_s == 36)
    cfg = NetworkConfig(b_e=3200)
    rate, b_s2 = fronthaul_bitrate(cfg, b_l=3)
    checks.append(abs(rate - 3.58e10) < 1e-3)
    checks.append(b_s2 == 36)
    ok = all(checks)
    return ("formula goldens (path loss, dynamic range, bit accounting)", ok,
            f"{sum(checks)}/{len(checks)} identities hold")


ALL_CHECKS = [check_formula_goldens, check_oracle_equivalence,
              check_noise_statistics, check_covariance_monotonicity]


def run_selftest(fast: bool = False, echo=print) -> int:
    failures = 0
    for check in ALL_CHECKS:
        name, ok, detail = check(fast=fast)
        echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1

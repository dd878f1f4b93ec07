"""Built-in invariant suite behind the `selftest` CLI subcommand.

Each check returns a `Check`: its name, verdict and a one-line detail
that names the numbers it measured. The acceptance tests call the same
checks, so each invariant and each bound below is stated once:

- `check_oracle_equivalence` is criterion 1 (100 instances, every
  option);
- `check_noise_statistics(report)` holds a run's noise to the five noise
  bounds: the fig2 run's here, and their own runs' in criteria 2 and 3;
- `check_covariance_monotonicity(n_chains)` is criterion 6's first half,
  at 500 chains here and 10 000 in criterion 6;
- `check_formula_goldens` is criterion 7 (9 identities).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .chain import build_chain_plan, centralized_mmse_oracle
from .config import NetworkConfig, Option
from .geometry import pathloss_db
from .harness import (run_experiment, trial_channels, trial_dither,
                      trial_samples)
from .metrics import fronthaul_bitrate, multiplier_width
from .presets import preset
from .quantizer import StatReport, calibrate_dynamic_range, noise_covariance

ORACLE_BOUND = 1e-9       # max |chain - batch LMMSE|, every option
COVARIANCE_BOUND = 1e-8   # trace increase and negative eigenvalue / trace
KS_BOUND = 0.01           # KS distance of the noise from the uniform law
KS_MIN_SAMPLES = 100_000  # least unclipped noise samples per pair for KS
OFFDIAG_BOUND = 0.05      # off-diagonal / diagonal of the noise covariance
EIG_VS_DIAG_BOUND = 0.05  # sorted eigenvalues vs diagonal of that covariance
INPUT_CORR_BOUND = 0.02   # correlation of the noise with its input
GOLDEN_REL = 1e-12        # relative tolerance of the closed-form goldens


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def check_oracle_equivalence() -> Check:
    """Each option's chain must reproduce the batch LMMSE on its own
    observations: AP l's rows A_l^H H_l, its projection A_l^H y_l plus
    its dither and realized quantization noise (zero when lossless), and
    noise variance sigma2 + diag(quantizer.noise_covariance(delta))."""
    cfg = NetworkConfig()
    n_inst = 100
    worst = dict.fromkeys([o.value for o in Option], 0.0)
    Hs = trial_channels(cfg, 1, [(i, 0) for i in range(n_inst)])
    for i, H in enumerate(Hs):
        _, Y = trial_samples(cfg, 1, i, 0, H, 1)
        for option in Option:
            plan = build_chain_plan(cfg, H, option=option)
            D = trial_dither(1, i, 0, option, plan.delta.shape + (1,))
            sh, _ = kernels.apply_chain(H, plan.AH, plan.V, plan.bits,
                                        plan.delta, Y, D, plan.mode,
                                        option.quantized)
            eta = np.stack([kernels.apply_chain_collect(plan, Y, D, l)[1]
                            for l in range(cfg.L)])
            ref = centralized_mmse_oracle(
                plan.AH @ H, plan.AH @ Y + plan.delta[..., None] * D + eta,
                cfg.p, cfg.sigma2 + np.diagonal(
                    noise_covariance(plan.delta), axis1=-2, axis2=-1))
            worst[option.value] = max(worst[option.value],
                                      float(np.max(np.abs(sh - ref))))
    max_diff = max(worst.values())
    diffs = ", ".join(f"{o} {d:.3e}" for o, d in worst.items())
    return Check("oracle equivalence (each option's chain vs batch LMMSE)",
                 max_diff < ORACLE_BOUND,
                 f"max |diff| {diffs} over {n_inst} instances")


def check_noise_statistics(report: StatReport) -> Check:
    """A run's quantization noise against the five bounds of the model
    criteria 2 and 3 rest on: uniform CDF on enough unclipped samples,
    diagonal covariance, and no correlation with the input."""
    ks = float(max(report.ks_re.max(), report.ks_im.max()))
    n = int(report.n_unclipped.min())
    offdiag, eig = report.offdiag_ratio, report.eig_vs_diag_rel
    corr = float(report.corr_input.max())
    ok = (ks < KS_BOUND and n >= KS_MIN_SAMPLES and offdiag < OFFDIAG_BOUND
          and eig < EIG_VS_DIAG_BOUND and corr < INPUT_CORR_BOUND)
    return Check("quantization-noise statistics (CDF, covariance, "
                 "decorrelation)", ok,
                 f"worst KS {ks:.4f} at >= {n} unclipped samples/pair, "
                 f"offdiag/diag {offdiag:.4f}, eig-vs-diag {eig:.2e}, "
                 f"input corr {corr:.4f}")


def _fig2_noise_statistics() -> Check:
    cfg, plan = preset("fig2")
    return check_noise_statistics(run_experiment(plan, cfg).stat_report)


def check_covariance_monotonicity(n_chains: int = 500) -> Check:
    """trace(C) never increases along the chain; C stays PSD. Chain i is
    block i % 20 of placement i // 20 and runs option i % 4. The C after
    AP l is the final C of the plan on APs 0..l (the recursion is causal);
    each option's chains are planned in one call per prefix, the last of
    which is the whole chain."""
    cfg = NetworkConfig()
    H = trial_channels(cfg, 1, [divmod(i, 20) for i in range(n_chains)])
    worst_inc, worst_eig = -np.inf, np.inf
    for k, option in enumerate(Option):
        for n in range(1, cfg.L + 1):
            plan = build_chain_plan(cfg, H[k::4, :n], option=option,
                                    bits=cfg.b_l[:n])
            ev = (np.linalg.eigvalsh(plan.C).min(axis=-1)
                  / np.trace(plan.C, axis1=-2, axis2=-1).real)
            worst_eig = min(worst_eig, float(ev.min()))
        inc = np.max(np.diff(plan.traces), axis=-1) / plan.traces[:, 0]
        worst_inc = max(worst_inc, float(inc.max()))
    ok = worst_inc <= COVARIANCE_BOUND and worst_eig >= -COVARIANCE_BOUND
    return Check("error-covariance recursion (monotone trace, PSD)", ok,
                 f"max trace increase {worst_inc:.2e}, "
                 f"min eig/trace {worst_eig:.2e} over {n_chains} chains")


def _close(value, golden):
    return abs(value - golden) <= GOLDEN_REL * abs(golden)


def check_formula_goldens() -> Check:
    """Closed-form arithmetic pinned to hand-computed values; the detail
    names each identity that fails."""
    gamma, _ = calibrate_dynamic_range([2.0], alpha=3.0, b=3)
    gamma2, delta2 = calibrate_dynamic_range([2.0, 0.5], alpha=2.5, b=4)
    width, b_s = multiplier_width(8, 3, 4)
    cfg = NetworkConfig(b_e=3200)
    rate, fronthaul_b_s = fronthaul_bitrate(cfg, b_l=3)
    n_cb = cfg.bandwidth_hz / cfg.coherence_bw_hz
    increment = 2.0 * n_cb * cfg.tau_d * cfg.K / cfg.coherence_time_s
    holds = {
        "pathloss 1m": _close(pathloss_db(1.0), -30.5),
        "pathloss 100m": _close(pathloss_db(100.0), -103.9),
        "pathloss 10m": _close(pathloss_db(10.0), -67.2),
        # 3 (1 - 9/192)^(-1/2): alpha = 3, b = 3, variance 2
        "gamma closed form": _close(gamma[0], 3.0728851183895034),
        "step relation": bool(
            np.array_equal(delta2, 2.0 * gamma2 / 2.0 ** 4)),
        "accumulator width": width == 18,
        "estimate width":
            b_s == fronthaul_b_s == 2 * (8 + 3 + 2 * 4 - 1) == 36,
        "bitrate golden": _close(rate, 3.58e10),
        "bitrate affine in bits": all(
            _close(fronthaul_bitrate(cfg, b_l=b + 1)[0]
                   - fronthaul_bitrate(cfg, b_l=b)[0], increment)
            for b in range(1, 8)),
    }
    failed = [k for k, v in holds.items() if not v]
    return Check("formula goldens (path loss, dynamic range, bit accounting)",
                 not failed,
                 f"{len(holds) - len(failed)}/{len(holds)} identities hold"
                 f"{(', failed: ' + ', '.join(failed)) if failed else ''}")


ALL_CHECKS = [check_formula_goldens, check_oracle_equivalence,
              _fig2_noise_statistics, check_covariance_monotonicity]


def run_selftest() -> int:
    failures = 0
    for check in ALL_CHECKS:
        name, ok, detail = check()
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1

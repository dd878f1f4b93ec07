"""The scenario the unit tests share, drawn by the harness's trial draws
for placement 0, block 0 of a seed. pytest collects no test here; code
that test modules share lives here."""

import importlib.util
import sys
from pathlib import Path

from cfchain import kernels
from cfchain.config import NetworkConfig
from cfchain.harness import trial_channels, trial_dither, trial_samples

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def scenario(seed=0, **cfg_kw):
    """(cfg, H): NetworkConfig(**cfg_kw) and one block's channels."""
    cfg = NetworkConfig(**cfg_kw)
    return cfg, trial_channels(cfg, seed, [(0, 0)])[0]


def received(cfg, H, S, seed=0):
    """(s, Y): S symbols at power cfg.p and the samples H's APs receive."""
    return trial_samples(cfg, seed, 0, 0, H, S)


def unit_dither(plan, S, seed=0):
    """The plan's unit dither (L, r, S), which a batched plan shares."""
    return trial_dither(seed, 0, 0, plan.option,
                        plan.delta.shape[-2:] + (S,))


def run_chain(H, plan, Y, D=None):
    """(s_hat, clips) of the plan on channels H, samples Y and unit dither
    D (None for a lossless plan), by the call the sweeps make."""
    return kernels.apply_chain(H, plan.AH, plan.V, plan.gamma, plan.delta,
                               Y, D, plan.mode, plan.option.quantized)


def load_perfbench(name):
    """perfbench/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod

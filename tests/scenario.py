"""The scenario the unit tests share, drawn as a run draws it: placement,
channels, samples and dither from the stream tuple (seed, 0, 0, 0, role).
pytest collects no test here; code that test modules share lives here."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from cfchain import kernels
from cfchain.config import NetworkConfig
from cfchain.geometry import crandn, draw_channel, generate_placement
from cfchain.harness import Role, seed_stream
from cfchain.quantizer import draw_dither

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def scenario(seed=0, **cfg_kw):
    """(cfg, channel): NetworkConfig(**cfg_kw) and one block's channels."""
    cfg = NetworkConfig(**cfg_kw)
    placement = generate_placement(
        cfg, seed_stream(seed, 0, 0, 0, Role.PLACEMENT))
    return cfg, draw_channel(cfg, placement,
                             seed_stream(seed, 0, 0, 0, Role.CHANNEL))


def received(cfg, ch, S, seed=0):
    """(s, Y): S symbols at power cfg.p, drawn before the noise on the
    NOISE stream, and the samples the APs receive."""
    rng = seed_stream(seed, 0, 0, 0, Role.NOISE)
    s = np.sqrt(cfg.p) * crandn(rng, cfg.K, S)
    return s, ch.H @ s + np.sqrt(cfg.sigma2) * crandn(rng, cfg.L, cfg.N, S)


def unit_dither(plan, S, seed=0):
    """The plan's unit dither as the harness draws it: (L, r, S), which a
    batched plan shares."""
    du = seed_stream(seed, 0, 0, 0, Role.DITHER, option_tag=plan.mode)
    return draw_dither(du, plan.delta.shape[-2:] + (S,))


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

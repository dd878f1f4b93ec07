"""Built-in scenarios reproducing the headline experiments.

All presets share the default network (5 APs x 4 antennas, 10 users,
100 MHz / -85 dBm noise, -10 dB transmit power, 3-bit quantizers) and
differ only in what they sweep and how many trials they spend. A preset
is a set of plan keywords; `runio.build_config` turns it into a config
and plan exactly as it does a config file.
"""

from __future__ import annotations

from .config import ExperimentPlan, NetworkConfig, Option
from .runio import build_config

ALL_OPTIONS = (Option.OPTION1, Option.OPTION2, Option.OPTION3, Option.NOQUANT)

PRESETS = {
    "fig2": dict(kind="noise_cdf", n_placements=1, n_blocks=1,
                 n_samples=120_000, options=(Option.OPTION1,)),
    "fig3": dict(kind="noise_cov", n_placements=1, n_blocks=1,
                 n_samples=120_000, options=(Option.OPTION1,)),
    # >= 500 independent placements so the per-bit option ordering is
    # resolved well beyond its confidence interval
    "fig4": dict(kind="nmse_vs_bits", bits_sweep=tuple(range(1, 9)),
                 n_placements=500, n_blocks=2, n_samples=100,
                 options=ALL_OPTIONS),
    "fig5": dict(kind="ber_vs_power", power_sweep_db=tuple(range(-20, 1, 2)),
                 n_placements=200, n_blocks=10, n_samples=500,
                 options=ALL_OPTIONS),
    "bitrate": dict(kind="bitrate_table", bits_sweep=tuple(range(1, 9)),
                    n_placements=1, n_blocks=1, n_samples=1,
                    options=(Option.OPTION1,)),
}


def preset(name: str, seed: int | None = None
           ) -> tuple[NetworkConfig, ExperimentPlan]:
    """(config, plan) of a preset; a seed is the override master_seed=N."""
    name = name.strip().lower()
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: "
                       f"{sorted(PRESETS)}")
    return build_config({}, PRESETS[name],
                        [] if seed is None else [f"master_seed={seed}"])

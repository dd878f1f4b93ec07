"""Config-file ingestion and result serialization.

Config files are INI documents with [network] and [plan] sections whose
keys are the NetworkConfig / ExperimentPlan field names, one key per
value. Unknown keys are hard errors (typo protection). This module owns
file formats only, and `config` owns every key's type: INI and override
values are handed over as `config.Text`, manifest values as the JSON
gives them. Files, presets and CLI overrides all resolve through
`build_config`, which also checks config and plan together.
`emit_results` writes the CSV tables a result carries, then a run
manifest (JSON); feeding that manifest back to `run` reproduces the
run bit-exactly. The manifest records the config with its derived values,
the plan (whose master_seed is the run's one seed) and the version once,
at its top level; `result_metadata` holds only what the run measured.
"""

from __future__ import annotations

import configparser
import datetime
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__ as _version
from .config import (ConfigError, ExperimentPlan, NetworkConfig, Text,
                     check_power)
from .quantizer import check_alpha_bits

_SECTION_KEYS = {"network": {f.name for f in fields(NetworkConfig)},
                 "plan": {f.name for f in fields(ExperimentPlan)}}


def parse_overrides(overrides: list[str] | None) -> tuple[dict, dict]:
    """Split repeatable "key=value" strings into network and plan kwargs.

    Keys are matched against the network section first, then the plan.
    """
    net_kwargs: dict = {}
    plan_kwargs: dict = {}
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value, got {ov!r}")
        key, raw = ov.split("=", 1)
        key = key.strip()
        if key in _SECTION_KEYS["network"]:
            net_kwargs[key] = Text(raw.strip())
        elif key in _SECTION_KEYS["plan"]:
            plan_kwargs[key] = Text(raw.strip())
        else:
            raise ConfigError(f"unknown override key {key!r}")
    return net_kwargs, plan_kwargs


def build_config(net_kwargs: dict, plan_kwargs: dict,
                 overrides: list[str] | None = None
                 ) -> tuple[NetworkConfig, ExperimentPlan]:
    """Build (NetworkConfig, ExperimentPlan) from keyword sets, with
    overrides (see parse_overrides) on top; of several overrides of a key
    the last wins.

    Config and plan are checked together: the plan's bit widths against
    alpha^2 < 3*4^b, its transmit powers by `check_power`.
    """
    net_ov, plan_ov = parse_overrides(overrides)
    cfg = NetworkConfig(**{**net_kwargs, **net_ov})
    plan = ExperimentPlan(**{**plan_kwargs, **plan_ov})
    if any(o.quantized for o in plan.options):
        bits = plan.bits_sweep if plan.kind == "nmse_vs_bits" else cfg.bits
        check_alpha_bits(cfg.alpha, min(bits))
    for p_db in plan.power_sweep_db if plan.kind == "ber_vs_power" else ():
        check_power("power_sweep_db", p_db, cfg.sigma2)
    return cfg, plan


def parse_config(path: str | None = None, overrides: list[str] | None = None
                 ) -> tuple[NetworkConfig, ExperimentPlan]:
    """Load (NetworkConfig, ExperimentPlan) from an INI file or manifest.

    path=None or an empty file yields the full default scenario. overrides
    (see parse_overrides) are applied after the file.
    """
    sections = {} if path is None else _read_sections(path)
    return build_config(sections.get("network", {}), sections.get("plan", {}),
                        overrides)


def _read_sections(path: str) -> dict:
    """The network and plan keys of an INI file's [network] and [plan]
    sections, as Text, or of a manifest's config and plan, as JSON values.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    try:
        if text.startswith("{"):
            doc = json.loads(text)
            for key in ("config", "plan"):
                if not isinstance(doc.setdefault(key, {}), dict):
                    raise ConfigError(f"manifest {key} is not a JSON object:"
                                      f" {doc[key]!r}")
            sections = {"network": doc["config"], "plan": doc["plan"]}
            sections["network"].pop("derived", None)
        else:
            parser.read_string(text, source=path)
            sections = {name: {key: Text(raw) for key, raw in
                               parser.items(name)}
                        for name in parser.sections()}
    except (json.JSONDecodeError, configparser.Error) as e:
        raise ConfigError(f"config parse error: {e}") from e
    for name, values in sections.items():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}] in {path}; "
                              "expected [network] and/or [plan]")
        unknown = sorted(set(values) - _SECTION_KEYS[name])
        if unknown:
            raise ConfigError(f"unknown {name} keys {unknown} in {path}")
    return sections


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, bit for bit."""

    config: dict
    plan: dict
    out_dir: str
    version: str
    build_id: str
    started_utc: str

    @classmethod
    def create(cls, cfg: NetworkConfig, plan: ExperimentPlan,
               out_dir: str) -> "RunManifest":
        cfg_doc = cfg.as_dict()
        digest = hashlib.sha256(
            json.dumps({"config": cfg_doc, "plan": plan.as_dict()},
                       sort_keys=True).encode()).hexdigest()[:12]
        return cls(
            config=cfg_doc,
            plan=plan.as_dict(),
            out_dir=str(out_dir),
            version=_version,
            build_id=f"cfchain-{_version}+cfg.{digest}",
            started_utc=datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
        )

    def as_dict(self) -> dict:
        return asdict(self)


def _fmt(x) -> str:
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.9g}"


def _write_csv(path, header, rows):
    """An ndarray table (of floats) formats each row with one %-string,
    the bytes `_fmt` gives a float; a list table keeps `_fmt`, whose ints
    stay str(x)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.9g"] * rows.shape[1]) + "\n"
            # Python floats format faster than numpy's
            fh.writelines(line % tuple(row) for row in rows.tolist())
            return
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def emit_results(result, manifest: RunManifest, out_dir: str) -> list[str]:
    """Write the result's CSV tables, then the JSON manifest with the
    result's metadata; returns the written paths in that order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, (header, rows) in result.tables.items():
        written.append(os.path.join(out_dir, name))
        _write_csv(written[-1], header, rows)
    doc = manifest.as_dict()
    doc["result_metadata"] = result.metadata
    written.append(os.path.join(out_dir, "manifest.json"))
    with open(written[-1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written

"""Config-file ingestion and result serialization.

Config files are INI documents with [network] and [plan] sections whose
keys mirror the NetworkConfig / ExperimentPlan field names. Unknown keys
are hard errors (typo protection); RETIRED_KEYS are read and dropped.
This module owns file formats only, and `config` owns every key's type:
INI and override values are handed over as `config.Text`, manifest
values as the JSON gives them. Files, presets and CLI overrides all
resolve through `build_config`, which also checks config and plan
together. `emit_results` writes the CSV tables a result carries, then a
run manifest (JSON); feeding that manifest back to `run` reproduces the
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
from .config import (NOISE_KINDS, ConfigError, ExperimentPlan, NetworkConfig,
                     Text, coerce)
from .quantizer import check_alpha_bits

# [network] keys earlier versions wrote, which no run reads: accepted from
# files, manifests and overrides so that these keep replaying, then dropped
RETIRED_KEYS = ("option", "carrier_freq_hz")
_SECTION_KEYS = {
    "network": {f.name for f in fields(NetworkConfig)} | {"seed"} | set(
        RETIRED_KEYS),
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
    overrides (see parse_overrides) on top. The run's one seed is the first
    given of: override master_seed, override seed, master_seed, seed, 1.

    RETIRED_KEYS are dropped. A retired `option` still names the option of
    a noise kind whose options list has more than one entry: that is the
    one option such a file or manifest ran before [plan] options chose it.
    Config and plan are checked together: every bit width the plan
    quantizes with must satisfy alpha^2 < 3*4^b.
    """
    net_ov, plan_ov = parse_overrides(overrides)
    seeds = [coerce(ExperimentPlan, key, kw[key], "master_seed")
             for kw, key in ((plan_ov, "master_seed"), (net_ov, "seed"),
                             (plan_kwargs, "master_seed"),
                             (net_kwargs, "seed")) if key in kw]
    net = {**net_kwargs, **net_ov}
    net.pop("seed", None)
    retired = {key: net.pop(key) for key in RETIRED_KEYS if key in net}
    cfg = NetworkConfig(**net)
    plan_kw = {key: coerce(ExperimentPlan, key, raw) for key, raw in
               {**plan_kwargs, **plan_ov}.items()}
    plan_kw["master_seed"] = seeds[0] if seeds else ExperimentPlan.master_seed
    if ("option" in retired
            and plan_kw.get("kind", ExperimentPlan.kind) in NOISE_KINDS
            and len(plan_kw.get("options", ExperimentPlan.options)) > 1):
        plan_kw["options"] = (retired["option"],)
    plan = ExperimentPlan(**plan_kw)
    if any(o.quantized for o in plan.options):
        bits = plan.bits_sweep if plan.kind == "nmse_vs_bits" else cfg.bits
        check_alpha_bits(cfg.alpha, min(bits))
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
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()  # Python floats format faster than numpy's
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
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

"""Run configuration file: schema validation, hashing, and defaults.

One JSON file fully describes a run. Unknown keys are rejected everywhere
so typos fail loudly before anything starts, and the effective config is
re-serialized into the state directory for reproducibility.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional

from .engine import MODES, RunConfig
from .evaluation import DomainSpec, Gate, StagedEvalPolicy
from .generation import SimulatedAgentGenome
from .sandbox import SandboxLimits
from .selection import SelectionPolicy, checked_type


class ConfigError(Exception):
    """Invalid config; the message names the offending key."""


def _require(mapping: dict, key: str, kind, context: str):
    if key not in mapping:
        raise ConfigError(f"missing key '{context}{key}'")
    try:
        return checked_type(mapping[key], kind, context + key)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _optional(mapping: dict, key: str, kind, default, context: str):
    if key not in mapping:
        return default
    return _require(mapping, key, kind, context)


def _reject_unknown(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{context}{sorted(unknown)[0]}'")


def _parse_policy(spec: dict) -> SelectionPolicy:
    try:
        return SelectionPolicy.from_dict(spec)
    except ValueError as exc:
        raise ConfigError(f"key 'policy': {exc}") from exc


def _parse_gate(spec: dict, context: str) -> Gate:
    _reject_unknown(spec, {"kind", "count", "fraction", "strict"}, context)
    kind = _require(spec, "kind", str, context)
    try:
        return Gate(
            kind=kind,
            count=_optional(spec, "count", int, 1, context),
            fraction=_optional(spec, "fraction", float, 0.4, context),
            strict=_optional(spec, "strict", bool, True, context),
        )
    except ValueError as exc:
        raise ConfigError(f"key '{context}kind': {exc}") from exc


def _parse_domain(spec: dict, index: int) -> tuple[DomainSpec, dict]:
    context = f"domains[{index}]."
    _reject_unknown(
        spec,
        {"name", "task_ids", "subset_size", "full_size", "gate",
         "has_validation", "validation_task_ids", "evaluator"},
        context,
    )
    name = _require(spec, "name", str, context)
    task_ids = tuple(_require(spec, "task_ids", list, context))
    subset = _require(spec, "subset_size", int, context)
    full = _optional(spec, "full_size", int, len(task_ids), context)
    gate = _parse_gate(_require(spec, "gate", dict, context), context + "gate.")
    has_validation = _optional(spec, "has_validation", bool, False, context)
    validation = tuple(_optional(spec, "validation_task_ids", list, [], context))
    evaluator = _optional(spec, "evaluator", dict, {"kind": "synthetic"}, context)
    _reject_unknown(evaluator, {"kind", "command"}, context + "evaluator.")
    evaluator_kind = _optional(evaluator, "kind", str, "synthetic", context + "evaluator.")
    if evaluator_kind not in ("synthetic", "command"):
        raise ConfigError(f"key '{context}evaluator.kind' must be 'synthetic' or 'command'")
    if evaluator_kind == "command":
        _require(evaluator, "command", list, context + "evaluator.")
    try:
        domain = DomainSpec(
            name=name,
            task_ids=task_ids,
            staged=StagedEvalPolicy(subset_size=subset, full_size=full, gate=gate),
            has_validation=has_validation,
            validation_task_ids=validation,
        )
    except ValueError as exc:
        raise ConfigError(f"key '{context[:-1]}': {exc}") from exc
    return domain, evaluator


def _parse_limits(spec: dict) -> SandboxLimits:
    context = "limits."
    _reject_unknown(
        spec, {"wall_clock_seconds", "cpu_seconds", "max_output_bytes", "network"}, context
    )
    try:
        return SandboxLimits(
            wall_clock_seconds=_optional(spec, "wall_clock_seconds", float, 60.0, context),
            cpu_seconds=_optional(spec, "cpu_seconds", int, 60, context),
            max_output_bytes=_optional(spec, "max_output_bytes", int, 1_000_000, context),
            network=_optional(spec, "network", str, "disabled", context),
        )
    except ValueError as exc:
        raise ConfigError(f"key 'limits': {exc}") from exc


def _parse_initial(spec: dict) -> dict:
    """The root agent's genome keys, checked as `SimulatedAgentGenome` checks them.
    `selection_policy` is agent payload: a malformed one is not a config error,
    the agent's selection routine fails at run time and falls back to uniform."""
    context = "initial."
    _reject_unknown(
        spec,
        {"task_skill", "meta_capability", "compile_probability", "payload_ref",
         "selection_policy"},
        context,
    )
    _optional(spec, "payload_ref", str, None, context)
    try:
        skill = [checked_type(v, float, f"{context}task_skill[{i}]")
                 for i, v in enumerate(_optional(spec, "task_skill", list, [], context))]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        SimulatedAgentGenome(
            task_skill=skill,
            meta_capability=_optional(spec, "meta_capability", float, 0.0, context),
            compile_probability=_optional(spec, "compile_probability", float, 0.0, context),
        )
    except ValueError as exc:
        raise ConfigError(f"key 'initial': {exc}") from None
    return spec


_TOP_KEYS = {
    "mode", "iterations", "seed", "state_dir", "payload_dir", "policy", "domains",
    "backend", "initial", "parents_per_iteration", "concurrency", "limits",
    "instruction_template",
}

_BACKEND_KEYS = {
    "simulated": {
        "kind", "landscape", "step_sigma", "bold_probability", "bold_base", "bold_meta_gain",
        "meta_sigma", "meta_drift", "max_probes", "mutation_scale",
    },
    "external-process": {"kind", "command"},
    "model-client": {"kind", "url", "token_env"},
}
_BACKEND_REQUIRED = {"external-process": ("command", list), "model-client": ("url", str)}


def parse_config(doc: dict, base_dir: Optional[Path] = None) -> tuple[RunConfig, dict[str, dict]]:
    """Validate a config document; returns the run config plus evaluator specs."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(doc, _TOP_KEYS, "")

    mode = _require(doc, "mode", str, "")
    if mode not in MODES:
        raise ConfigError(f"key 'mode' must be one of {MODES}, got {mode!r}")

    backend = _optional(doc, "backend", dict, {"kind": "simulated"}, "")
    kind = backend.get("kind", "simulated")
    if kind not in _BACKEND_KEYS:
        raise ConfigError(f"key 'backend.kind' must be one of {sorted(_BACKEND_KEYS)}")
    _reject_unknown(backend, _BACKEND_KEYS[kind], "backend.")
    if kind in _BACKEND_REQUIRED:
        _require(backend, *_BACKEND_REQUIRED[kind], "backend.")

    domain_specs = _require(doc, "domains", list, "")
    domains = []
    evaluator_specs: dict[str, dict] = {}
    for index, spec in enumerate(domain_specs):
        domain, evaluator = _parse_domain(spec, index)
        domains.append(domain)
        evaluator_specs[domain.name] = evaluator

    state_dir = Path(_require(doc, "state_dir", str, ""))
    if base_dir is not None and not state_dir.is_absolute():
        state_dir = base_dir / state_dir
    payload_dir = _optional(doc, "payload_dir", str, None, "")
    if payload_dir is not None:
        payload_dir = Path(payload_dir)
        if base_dir is not None and not payload_dir.is_absolute():
            payload_dir = base_dir / payload_dir
    template = _optional(doc, "instruction_template", str, None, "")

    try:
        config = RunConfig(
            mode=mode,
            iterations=_require(doc, "iterations", int, ""),
            seed=_require(doc, "seed", int, ""),
            state_dir=state_dir,
            policy=_parse_policy(_optional(doc, "policy", dict, {"variant": "score-child-prop"}, "")),
            domains=domains,
            backend=backend,
            initial=_parse_initial(_optional(doc, "initial", dict, {}, "")),
            parents_per_iteration=_optional(doc, "parents_per_iteration", int, 1, ""),
            concurrency=_optional(doc, "concurrency", int, 1, ""),
            limits=_parse_limits(_optional(doc, "limits", dict, {}, "")),
            payload_dir=payload_dir,
            instruction_template=Path(template) if template else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, evaluator_specs


def load_config(path: str | Path) -> tuple[RunConfig, dict[str, dict], dict]:
    """Read and validate a config file; returns (config, evaluator specs, raw doc)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    config, evaluator_specs = parse_config(doc, base_dir=path.parent.resolve())
    return config, evaluator_specs, doc


def config_hash(doc: dict) -> str:
    """Hash of the run's semantic content; storage location keys are excluded
    so a run can be rerun or relocated without changing its identity."""
    semantic = {k: v for k, v in doc.items() if k not in ("state_dir", "payload_dir")}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def effective_config_doc(doc: dict, overrides: dict[str, Any]) -> dict:
    merged = dict(doc)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return merged


def demo_config(state_dir: str = "demo_run", iterations: int = 20, seed: int = 42) -> dict:
    """Built-in demo: simulated backend on the two-peak surface."""
    return {
        "mode": "full",
        "iterations": iterations,
        "seed": seed,
        "state_dir": state_dir,
        "policy": {"variant": "score-child-prop", "sharpness": 10.0, "midpoint_pool_size": 3},
        "backend": {"kind": "simulated"},
        "initial": {"task_skill": [0.0, 0.0, 0.0], "meta_capability": 0.05,
                    "compile_probability": 0.95},
        "domains": [
            {
                "name": "landscape",
                "task_ids": ["probe-1", "probe-2", "probe-3"],
                "subset_size": 1,
                "full_size": 3,
                "gate": {"kind": "min-successes", "count": 1},
                "evaluator": {"kind": "synthetic"},
            }
        ],
        "limits": {"wall_clock_seconds": 30.0, "cpu_seconds": 30,
                   "max_output_bytes": 1000000, "network": "disabled"},
    }

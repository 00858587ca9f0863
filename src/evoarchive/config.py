"""Run configuration file: schema validation, hashing, and defaults.

One JSON file fully describes a run. Each section's keys and their JSON
types are listed once below, and `selection.read_keys` reads every section
by its table, on the CLI and library paths alike: unknown keys are rejected
everywhere and every value is checked before anything starts. An absent key
takes the default of the object its section builds (`RunConfig`, `Gate`,
`SandboxLimits`, `TwoPeakLandscape`, `SimulatedBackend`, the root genome of
`generation.initial_genome`). The effective config is re-serialized into
the state directory for reproducibility.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from .evaluation import CommandEvaluator, DomainSpec, Gate, StagedEvalPolicy
from .generation import ExternalProcessBackend, SimulatedAgentGenome, initial_genome
from .landscape import TwoPeakLandscape
from .sandbox import SandboxLimits
from .selection import SelectionPolicy, checked_type, read_keys

MODES = ("full", "no-self-improve", "no-open-ended", "dgm-fixed-instruction",
         "modifiable-selection")


class ConfigError(Exception):
    """Invalid config; the message names the offending key."""


TOP_KEYS: dict[str, Any] = {
    "mode": str,
    "iterations": int,
    "seed": int,
    "state_dir": str,
    "payload_dir": str,
    "policy": dict,
    "domains": list[dict],
    "backend": dict,
    "initial": dict,
    "parents_per_iteration": int,
    "concurrency": int,
    "limits": dict,
    "instruction_template": str,
}
DOMAIN_KEYS: dict[str, Any] = {
    "name": str,
    "task_ids": list[str],
    "subset_size": int,
    "full_size": int,
    "gate": dict,
    "has_validation": bool,
    "validation_task_ids": list[str],
    "evaluator": dict,
}
GATE_KEYS: dict[str, Any] = {"kind": str, "count": int, "fraction": float, "strict": bool}
LIMITS_KEYS: dict[str, Any] = {
    "wall_clock_seconds": float,
    "cpu_seconds": int,
    "max_output_bytes": int,
    "network": str,
}
# `selection_policy` is agent payload: a malformed one is not a config error,
# the agent's selection routine fails at run time and falls back to uniform
INITIAL_KEYS: dict[str, Any] = {
    "task_skill": list[float],
    "meta_capability": float,
    "compile_probability": float,
    "payload_ref": str,
    "selection_policy": Any,
}
LANDSCAPE_KEYS: dict[str, Any] = {
    "base_level": float,
    "local_center": list[float],
    "local_height": float,
    "local_width": float,
    "global_center": list[float],
    "global_height": float,
    "global_width": float,
}
SIMULATED_BACKEND_KEYS: dict[str, Any] = {
    "kind": str,
    "landscape": dict,
    "step_sigma": float,
    "bold_probability": float,
    "bold_base": float,
    "bold_meta_gain": float,
    "meta_sigma": float,
    "meta_drift": float,
    "max_probes": int,
    "mutation_scale": float,
}
# each kind of backend and of evaluator: its keys and the keys it requires
BACKEND_KINDS: dict[str, tuple[dict[str, Any], tuple[str, ...]]] = {
    "simulated": (SIMULATED_BACKEND_KEYS, ()),
    "external-process": ({"kind": str, "command": list[str]}, ("command",)),
    "model-client": ({"kind": str, "url": str, "token_env": str}, ("url",)),
}
EVALUATOR_KINDS: dict[str, tuple[dict[str, Any], tuple[str, ...]]] = {
    "synthetic": ({"kind": str}, ()),
    "command": ({"kind": str, "command": list[str]}, ("command",)),
}


def _build(context: str, make: Callable, *args, **kwargs):
    """`make(*args, **kwargs)`; its ValueError is one naming `context`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"key '{context}': {exc}") from None


def _read_kind(spec: dict, kinds: dict, default: str, context: str) -> dict:
    """`spec` read by the table of its `kind`, which is `default` when absent."""
    spec = checked_type(spec, dict, context[:-1])
    kind = checked_type(spec.get("kind", default), str, context + "kind")
    if kind not in kinds:
        raise ValueError(f"key '{context}kind' must be one of {sorted(kinds)}, got {kind!r}")
    keys, required = kinds[kind]
    return read_keys(spec, keys, context, required)


def read_evaluator(spec: dict, context: str) -> dict:
    """An evaluator spec read by the table of its kind, its keys named after `context`."""
    evaluator = _read_kind(spec, EVALUATOR_KINDS, "synthetic", context)
    if "command" in evaluator:
        _build(context + "command", CommandEvaluator, evaluator["command"])
    return evaluator


@dataclass
class RunConfig:
    """A run's settings, each checked here, so that the CLI and library paths refuse
    the same ones; a ValueError names the offending key. `backend` and `initial` are
    read by the tables above and kept as given, and the `landscape` and `root_genome`
    they describe are built here once: use `dataclasses.replace` to change them."""

    mode: str
    iterations: int
    seed: int
    state_dir: Path
    domains: list[DomainSpec]
    policy: SelectionPolicy = field(default_factory=SelectionPolicy)
    backend: dict = field(default_factory=lambda: {"kind": "simulated"})
    initial: dict = field(default_factory=dict)
    parents_per_iteration: int = 1
    concurrency: int = 1
    limits: SandboxLimits = field(default_factory=SandboxLimits)
    payload_dir: Optional[Path] = None
    instruction_template: Optional[Path] = None
    landscape: TwoPeakLandscape = field(init=False, repr=False)
    root_genome: SimulatedAgentGenome = field(init=False, repr=False)

    def __post_init__(self) -> None:
        read_keys(checked_type(self.initial, dict, "initial"), INITIAL_KEYS, "initial.")
        self.root_genome = _build("initial", initial_genome, self.initial)
        backend = _read_kind(self.backend, BACKEND_KINDS, "simulated", "backend.")
        landscape = read_keys(backend.get("landscape", {}), LANDSCAPE_KEYS, "backend.landscape.")
        self.landscape = _build("backend.landscape", TwoPeakLandscape, **landscape)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.seed < 2**32:  # `rng.substream` keeps 32 bits of it
            raise ValueError("seed must be in [0, 2**32)")
        if self.parents_per_iteration < 1:
            raise ValueError("parents_per_iteration must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not self.domains:
            raise ValueError("at least one domain required")
        if "command" in backend:
            _build("backend.command", ExternalProcessBackend, backend["command"], self.limits)
        self.state_dir = Path(self.state_dir)
        if self.payload_dir is None:
            self.payload_dir = self.state_dir / "payloads"
        self.payload_dir = Path(self.payload_dir)
        for key in ("state_dir", "payload_dir", "instruction_template"):
            path = str(getattr(self, key))
            try:  # the run writes these paths into its UTF-8 logs and payload files
                path.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"key '{key}': path {path!r} is not UTF-8") from None
        if self.instruction_template is not None:
            try:
                Path(self.instruction_template).read_text(encoding="utf-8")
            except (OSError, UnicodeError) as exc:
                raise ValueError(
                    f"key 'instruction_template': cannot read {self.instruction_template}: {exc}")


def _parse_domain(spec: dict, context: str) -> tuple[DomainSpec, dict]:
    values = read_keys(spec, DOMAIN_KEYS, context, ("name", "task_ids", "subset_size", "gate"))
    gate = _build(context + "gate", Gate,
                  **read_keys(values.pop("gate"), GATE_KEYS, context + "gate.", ("kind",)))
    evaluator = read_evaluator(values.pop("evaluator", {}), context + "evaluator.")
    values = {key: tuple(v) if isinstance(v, list) else v for key, v in values.items()}
    staged = _build(context[:-1], StagedEvalPolicy, values.pop("subset_size"),
                    values.pop("full_size", len(values["task_ids"])), gate)
    return _build(context[:-1], DomainSpec, staged=staged, **values), evaluator


def parse_config(doc: dict, base_dir: Optional[Path] = None) -> tuple[RunConfig, dict[str, dict]]:
    """Validate a config document; returns the run config plus evaluator specs."""
    try:
        values = read_keys(doc, TOP_KEYS, "",
                           ("mode", "iterations", "seed", "state_dir", "domains"))
        domains = [_parse_domain(spec, f"domains[{i}].")
                   for i, spec in enumerate(values["domains"])]
        values["domains"] = [domain for domain, _ in domains]
        if not values.get("instruction_template"):
            values.pop("instruction_template", None)  # empty means the default
        for key in ("state_dir", "payload_dir", "instruction_template"):
            if key in values:  # beside the config file: `Path(a, b)` is `b` if `b` is absolute
                values[key] = Path(base_dir or "", values[key])
        if "policy" in values:
            values["policy"] = _build("policy", SelectionPolicy.from_dict, values["policy"])
        if "limits" in values:
            values["limits"] = _build("limits", SandboxLimits,
                                      **read_keys(values["limits"], LIMITS_KEYS, "limits."))
        config = RunConfig(**values)
        ref = config.initial.get("payload_ref")
        if ref and base_dir is not None:  # a new dict: the document keeps `ref` as written
            config.initial = {**config.initial, "payload_ref": str(base_dir / ref)}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, {domain.name: evaluator for domain, evaluator in domains}


def read_config_doc(path: str | Path) -> dict:
    """The JSON object of a config file, not yet validated."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: expected an object, got {doc!r:.80}")
    return doc


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

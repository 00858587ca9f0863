"""Rooted tree of agent variants: scores, parent links, byte-stable storage.

The archive is append-only in archive-keeping modes. Ids are assigned in
creation order starting at 0 (the root) and never reused, so references
stay stable and the uniform-fallback denominator is simply the size.
Non-compiled children never become nodes; they exist only in the run log.

On-disk form is a directory with a ``manifest.json`` plus one JSON record
per node under ``nodes/``. Score floats are stored as shortest round-trip
decimal strings, and records are serialized with sorted keys, so persisting
the same archive twice yields identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Optional


class ArchiveError(Exception):
    """Engine-logic corruption (duplicate id, dangling parent); base of ArchiveLoadError."""


class ArchiveLoadError(ArchiveError):
    """Persisted state is corrupt or incomplete; names the offending record."""


@dataclass(slots=True)
class DomainScores:
    """Per-domain score record; `train` is a number and every value lies in [0, 1]."""

    train: float
    validation: Optional[float] = None
    test: Optional[float] = None

    def __post_init__(self) -> None:
        train, validation, test = self.train, self.validation, self.test
        if train is None or not 0.0 <= train <= 1.0:
            raise ValueError(f"train score {train} outside [0, 1]")
        if validation is not None and not 0.0 <= validation <= 1.0:
            raise ValueError(f"validation score {validation} outside [0, 1]")
        if test is not None and not 0.0 <= test <= 1.0:
            raise ValueError(f"test score {test} outside [0, 1]")

    def selection_component(self) -> float:
        """Validation aggregate when present, else the training aggregate."""
        return self.train if self.validation is None else self.validation


@dataclass(slots=True)
class AgentNode:
    """One archive entry.

    `compiled_children` counts this node's children that passed validity
    checking; it is maintained by `add_node` and recomputable from edges.
    `scores` is fixed once the node is built: `selection_score` is derived
    from it then, as the mean over the domains, summed in domain-name order,
    of each record's `selection_component` (None for a node without scores).
    """

    id: int
    parent_id: Optional[int]
    payload_ref: str
    compiled: bool
    scores: dict[str, DomainScores] = field(default_factory=dict)
    compiled_children: int = 0
    created_at_iteration: int = 0
    selection_score: Optional[float] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("node id must be non-negative")
        if self.compiled_children < 0:
            raise ValueError("compiled_children must be non-negative")
        if self.created_at_iteration < 0:
            raise ValueError("created_at_iteration must be non-negative")
        scores = self.scores
        values = [scores[name].selection_component() for name in sorted(scores)]
        self.selection_score = sum(values) / len(values) if values else None


@dataclass
class Archive:
    """Ordered node collection with contiguous ids from 0."""

    mode_tag: str = "full"
    nodes: list[AgentNode] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[AgentNode]:
        return iter(self.nodes)

    def node(self, node_id: int) -> AgentNode:
        """O(1) by position; scans only where ids are not positions (no-open-ended)."""
        if 0 <= node_id < len(self.nodes) and self.nodes[node_id].id == node_id:
            return self.nodes[node_id]
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"unknown node id {node_id}")

    def latest(self) -> AgentNode:
        if not self.nodes:
            raise ArchiveError("archive is empty")
        return self.nodes[-1]


def add_node(archive: Archive, node: AgentNode) -> Archive:
    """Append `node` if it compiled; otherwise leave the archive untouched.

    The first node must be the root (id 0, no parent). Every later node
    must carry the next contiguous id and a parent already in the archive.
    A compiled child bumps its parent's compiled_children by exactly one.
    """
    if not archive.nodes:
        if node.id != 0 or node.parent_id is not None:
            raise ArchiveError(
                f"first node must be the root (id 0, no parent), got "
                f"id={node.id} parent_id={node.parent_id}"
            )
        archive.nodes.append(node)
        return archive

    expected = len(archive.nodes)
    if node.id != expected:
        if any(n.id == node.id for n in archive.nodes):
            raise ArchiveError(f"duplicate node id {node.id}")
        raise ArchiveError(f"non-contiguous node id {node.id}, expected {expected}")
    if node.parent_id is None:
        raise ArchiveError(f"node {node.id} has no parent but is not the root")
    if not 0 <= node.parent_id < expected:
        raise ArchiveError(f"node {node.id} references dangling parent {node.parent_id}")

    if not node.compiled:
        # IsValid guard: non-compiled children are run-log entries only.
        return archive

    archive.nodes.append(node)
    archive.node(node.parent_id).compiled_children += 1
    return archive


def replace_sole_node(archive: Archive, node: AgentNode) -> Archive:
    """Replace the whole collection with `node` (no-open-ended mode only).

    The stored node keeps no parent pointer; its ancestry lives in the run
    log. Non-compiled candidates leave the previous agent in place.
    """
    if archive.mode_tag != "no-open-ended":
        raise ArchiveError("replace_sole_node is only valid in no-open-ended mode")
    if not node.compiled:
        return archive
    node.parent_id = None
    archive.nodes = [node]
    return archive


# --- persistence ------------------------------------------------------------

_MANIFEST = "manifest.json"
_NODE_DIR = "nodes"


def _score_json(value: Optional[float]) -> str:
    return "null" if value is None else f'"{float(value)!r}"'


def _node_record(node: AgentNode) -> str:
    """`json.dumps(record, sort_keys=True, indent=1) + "\n"` of the node's record,
    filled into a fixed template: strings through json's own C escaper, and each
    score as the JSON string of its shortest round-trip repr."""
    domains = [
        f'  {encode_basestring_ascii(name)}: {{\n   "test": {_score_json(s.test)},\n'
        f'   "train": {_score_json(s.train)},\n   "validation": {_score_json(s.validation)}\n  }}'
        for name, s in sorted(node.scores.items())
    ]
    scores = "{\n" + ",\n".join(domains) + "\n }" if domains else "{}"
    return (
        f'{{\n "compiled": {"true" if node.compiled else "false"},\n'
        f' "compiled_children": {node.compiled_children},\n'
        f' "created_at_iteration": {node.created_at_iteration},\n'
        f' "id": {node.id},\n'
        f' "parent_id": {"null" if node.parent_id is None else node.parent_id},\n'
        f' "payload_ref": {encode_basestring_ascii(node.payload_ref)},\n'
        f' "scores": {scores}\n}}\n'
    )


def _parse_node(text: str, source: str) -> AgentNode:
    try:
        raw = json.loads(text)
        scores = {
            name: DomainScores(
                train=float(s["train"]),
                validation=None if s["validation"] is None else float(s["validation"]),
                test=None if s["test"] is None else float(s["test"]),
            )
            for name, s in raw["scores"].items()
        }
        return AgentNode(
            id=raw["id"],
            parent_id=raw["parent_id"],
            payload_ref=raw["payload_ref"],
            compiled=raw["compiled"],
            scores=scores,
            compiled_children=raw["compiled_children"],
            created_at_iteration=raw["created_at_iteration"],
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ArchiveLoadError(f"corrupt node record {source}: {exc}") from exc


def _node_filename(node_id: int) -> str:
    return f"node_{node_id:06d}.json"


def persist(archive: Archive, location: str | Path, run_id: str = "") -> None:
    """Write the archive under `location`; load(persist(a)) == a, byte-stable."""
    root = Path(location)
    (root / _NODE_DIR).mkdir(parents=True, exist_ok=True)
    prefix = os.path.join(root, _NODE_DIR, "")
    for node in archive.nodes:
        with open(prefix + _node_filename(node.id), "wb") as f:
            f.write(_node_record(node).encode())
    manifest = {
        "run_id": run_id,
        "mode_tag": archive.mode_tag,
        "node_count": len(archive.nodes),
        "node_ids": [n.id for n in archive.nodes],
    }
    (root / _MANIFEST).write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def load(location: str | Path) -> Archive:
    """Read an archive back through `add_node` (`replace_sole_node` in
    no-open-ended mode), so it obeys the rules a run's archive does; refuses
    corrupt state, naming the failed record."""
    root = Path(location)
    manifest_path = root / _MANIFEST
    if not manifest_path.exists():
        raise ArchiveLoadError(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        mode_tag = manifest["mode_tag"]
        node_ids = manifest["node_ids"]
        count = manifest["node_count"]
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ArchiveLoadError(f"corrupt manifest {manifest_path}: {exc}") from exc
    if count != len(node_ids):
        raise ArchiveLoadError(
            f"manifest {manifest_path} lists {len(node_ids)} ids but node_count={count}"
        )
    archive = Archive(mode_tag=mode_tag)
    sole = mode_tag == "no-open-ended"
    stored = []
    for node_id in node_ids:
        path = root / _NODE_DIR / _node_filename(node_id)
        if not path.exists():
            raise ArchiveLoadError(f"missing node record {path.name}")
        node = _parse_node(path.read_text(encoding="utf-8"), path.name)
        stored.append(node.compiled_children)
        node.compiled_children = 0
        try:
            if node.id != node_id:
                raise ArchiveError(f"carries id {node.id}, manifest says {node_id}")
            # the two records an insert would drop or rewrite without a word
            if not node.compiled:
                raise ArchiveError('"compiled" is false')
            if sole and (archive.nodes or node.parent_id is not None):
                raise ArchiveError("a no-open-ended archive holds one node, without a parent")
            (replace_sole_node if sole else add_node)(archive, node)
        except (ArchiveError, TypeError) as exc:  # TypeError: a parent id that is not a number
            raise ArchiveLoadError(f"node record {path.name}: {exc}") from exc
    for node, count in zip(archive.nodes, stored):
        if node.compiled_children != count:
            raise ArchiveLoadError(f"node record {_node_filename(node.id)} stores "
                                   f"compiled_children={count}, edges say {node.compiled_children}")
    return archive


def fingerprint(location: str | Path) -> str:
    """SHA-256 over manifest plus node records, in manifest order."""
    root = Path(location)
    digest = hashlib.sha256()
    manifest_path = root / _MANIFEST
    digest.update(manifest_path.read_bytes())
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for node_id in manifest["node_ids"]:
        digest.update((root / _NODE_DIR / _node_filename(node_id)).read_bytes())
    return digest.hexdigest()

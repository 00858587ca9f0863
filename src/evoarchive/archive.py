"""Rooted tree of agent variants: scores, lineage queries, durable storage.

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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional


class ArchiveError(Exception):
    """Engine-logic corruption (duplicate id, dangling parent): abort the run."""


class ArchiveLoadError(Exception):
    """Persisted state is corrupt or incomplete; names the offending record."""


@dataclass
class DomainScores:
    """Per-domain score record; every value lies in [0, 1] when present."""

    train: float
    validation: Optional[float] = None
    test: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("train", "validation", "test"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} score {v} outside [0, 1]")

    def selection_component(self) -> float:
        """Validation aggregate when present, else the training aggregate."""
        return self.train if self.validation is None else self.validation


@dataclass
class AgentNode:
    """One archive entry.

    `compiled_children` counts this node's children that passed validity
    checking; it is maintained by `add_node` and recomputable from edges.
    """

    id: int
    parent_id: Optional[int]
    payload_ref: str
    compiled: bool
    scores: dict[str, DomainScores] = field(default_factory=dict)
    compiled_children: int = 0
    created_at_iteration: int = 0

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("node id must be non-negative")
        if self.compiled_children < 0:
            raise ValueError("compiled_children must be non-negative")
        if self.created_at_iteration < 0:
            raise ValueError("created_at_iteration must be non-negative")


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


def child_index(archive: Archive) -> dict[int, list[int]]:
    """Children of every node that has any, each list in ascending id order."""
    index: dict[int, list[int]] = {}
    for n in archive.nodes:
        if n.parent_id is not None:
            index.setdefault(n.parent_id, []).append(n.id)
    return index


def descendants(archive: Archive, node_id: int) -> set[int]:
    """All nodes reachable by child edges from `node_id`, excluding itself."""
    archive.node(node_id)
    index = child_index(archive)
    out: set[int] = set()
    frontier = [node_id]
    while frontier:
        current = frontier.pop()
        for child in index.get(current, ()):
            if child not in out:
                out.add(child)
                frontier.append(child)
    return out


def tree_distance(archive: Archive, ancestor: int, descendant: int) -> int:
    """Edge count on the unique path from `ancestor` down to `descendant`."""
    archive.node(ancestor)
    steps = 0
    current: Optional[int] = descendant
    while current is not None:
        if current == ancestor:
            return steps
        current = archive.node(current).parent_id
        steps += 1
    raise ValueError(f"node {descendant} is not a descendant of {ancestor}")


def lineage(archive: Archive, node_id: int) -> list[int]:
    """Path of ids from the root to `node_id`, root first."""
    path = [node_id]
    current = archive.node(node_id).parent_id
    while current is not None:
        path.append(current)
        current = archive.node(current).parent_id
    path.reverse()
    return path


def check_consistency(archive: Archive) -> None:
    """Verify structural invariants; raises ArchiveError on the first breach."""
    if not archive.nodes:
        return
    single_tree = archive.mode_tag != "no-open-ended"
    if single_tree:
        for position, n in enumerate(archive.nodes):
            if n.id != position:
                raise ArchiveError(f"node at position {position} has id {n.id}")
        if archive.nodes[0].parent_id is not None:
            raise ArchiveError("root node has a parent")
        roots = [n.id for n in archive.nodes if n.parent_id is None]
        if roots != [0]:
            raise ArchiveError(f"expected exactly one root, found {roots}")
        for n in archive.nodes[1:]:
            if n.parent_id is None or not 0 <= n.parent_id < n.id:
                raise ArchiveError(f"node {n.id} has invalid parent {n.parent_id}")
    elif len(archive.nodes) != 1:
        raise ArchiveError("no-open-ended archive must hold exactly one node")
    counts = Counter(c.parent_id for c in archive.nodes if c.compiled)
    for n in archive.nodes:
        actual = counts[n.id]
        if actual != n.compiled_children:
            raise ArchiveError(
                f"node {n.id} stores compiled_children={n.compiled_children}, "
                f"edges say {actual}"
            )


# --- persistence ------------------------------------------------------------

_MANIFEST = "manifest.json"
_NODE_DIR = "nodes"


def _float_str(value: Optional[float]) -> Optional[str]:
    return None if value is None else repr(float(value))


def _node_record(node: AgentNode) -> str:
    scores = {
        name: {
            "train": _float_str(s.train),
            "validation": _float_str(s.validation),
            "test": _float_str(s.test),
        }
        for name, s in node.scores.items()
    }
    record = {
        "id": node.id,
        "parent_id": node.parent_id,
        "payload_ref": node.payload_ref,
        "compiled": node.compiled,
        "compiled_children": node.compiled_children,
        "created_at_iteration": node.created_at_iteration,
        "scores": scores,
    }
    return json.dumps(record, sort_keys=True, indent=1) + "\n"


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
    for node in archive.nodes:
        path = root / _NODE_DIR / _node_filename(node.id)
        path.write_text(_node_record(node), encoding="utf-8")
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
    """Read an archive back; refuses corrupt state, naming the failed record."""
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
    for node_id in node_ids:
        path = root / _NODE_DIR / _node_filename(node_id)
        if not path.exists():
            raise ArchiveLoadError(f"missing node record {path.name}")
        node = _parse_node(path.read_text(encoding="utf-8"), path.name)
        if node.id != node_id:
            raise ArchiveLoadError(
                f"node record {path.name} carries id {node.id}, manifest says {node_id}"
            )
        archive.nodes.append(node)
    check_consistency(archive)
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

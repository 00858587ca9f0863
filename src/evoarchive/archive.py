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
from dataclasses import MISSING, dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Optional

from .selection import left_sum


class ArchiveError(Exception):
    """Engine-logic corruption (duplicate id, dangling parent); base of ArchiveLoadError."""


class ArchiveLoadError(ArchiveError):
    """Persisted state is corrupt or incomplete; names the offending record."""


@dataclass(slots=True, init=False)
class DomainScores:
    """Per-domain score record, checked by `__init__`: `train` set, every value in [0, 1]."""

    train: float
    validation: Optional[float] = None
    test: Optional[float] = None

    def __init__(self, train: float, validation: Optional[float] = None,
                 test: Optional[float] = None) -> None:
        if train is None or not 0.0 <= train <= 1.0:
            raise ValueError(f"train score {train} outside [0, 1]")
        if validation is not None and not 0.0 <= validation <= 1.0:
            raise ValueError(f"validation score {validation} outside [0, 1]")
        if test is not None and not 0.0 <= test <= 1.0:
            raise ValueError(f"test score {test} outside [0, 1]")
        self.train, self.validation, self.test = train, validation, test

    def selection_component(self) -> float:
        """Validation aggregate when present, else the training aggregate."""
        return self.train if self.validation is None else self.validation


@dataclass(slots=True, init=False)
class AgentNode:
    """One archive entry.

    `compiled_children` counts this node's children that passed validity
    checking; it is maintained by `add_node` and recomputable from edges.
    `compiled` is always True: a run archives only children that compiled.
    `__init__` checks the fields and fixes `scores`: `selection_score` is derived
    from it then, as the mean over the domains, summed in domain-name order, of
    each record's `selection_component` (None for a node without scores).
    """

    id: int
    parent_id: Optional[int]
    payload_ref: str
    compiled: bool
    scores: dict[str, DomainScores] = field(default_factory=dict)
    compiled_children: int = 0
    created_at_iteration: int = 0
    selection_score: Optional[float] = field(init=False, compare=False)

    def __init__(self, id: int, parent_id: Optional[int], payload_ref: str, compiled: bool,
                 scores: dict[str, DomainScores] = MISSING, compiled_children: int = 0,
                 created_at_iteration: int = 0) -> None:
        # `type() is int`: a bool is an int to isinstance, and a float is not
        # an id or a count; either would be written to a record as it is
        if (type(id) is not int or type(compiled_children) is not int
                or type(created_at_iteration) is not int
                or parent_id is not None and type(parent_id) is not int):
            fields = (("id", id), ("parent_id", parent_id),
                      ("compiled_children", compiled_children),
                      ("created_at_iteration", created_at_iteration))
            name, value = next((name, value) for name, value in fields if type(value) is not int
                               and (value is not None or name != "parent_id"))
            raise TypeError(f"{name} {value!r} is not an integer")
        if type(payload_ref) is not str:
            raise TypeError(f"payload_ref {payload_ref!r} is not a string")
        if id < 0:
            raise ValueError("node id must be non-negative")
        if compiled_children < 0:
            raise ValueError("compiled_children must be non-negative")
        if created_at_iteration < 0:
            raise ValueError("created_at_iteration must be non-negative")
        if compiled is not True:
            raise ValueError(f"compiled is {compiled!r}: only an agent that compiled is archived")
        self.id, self.parent_id, self.payload_ref = id, parent_id, payload_ref
        self.compiled, self.compiled_children = compiled, compiled_children
        self.created_at_iteration = created_at_iteration
        self.scores = scores = {} if scores is MISSING else scores  # a new dict per node
        if len(scores) == 1:  # `0.0 +` turns -0.0 into 0.0, as `left_sum` does
            (record,) = scores.values()
            self.selection_score = 0.0 + record.selection_component()
        else:
            values = [scores[name].selection_component() for name in sorted(scores)]
            self.selection_score = left_sum(values) / len(values) if values else None


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
    """Append `node`.

    The first node must be the root (id 0, no parent). Every later node
    must carry the next contiguous id and a parent already in the archive.
    A child bumps its parent's compiled_children by exactly one.
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

    archive.nodes.append(node)
    archive.node(node.parent_id).compiled_children += 1
    return archive


def replace_sole_node(archive: Archive, node: AgentNode) -> Archive:
    """Replace the whole collection with `node` (no-open-ended mode only).

    The stored node keeps no parent pointer; its ancestry lives in the run
    log.
    """
    if archive.mode_tag != "no-open-ended":
        raise ArchiveError("replace_sole_node is only valid in no-open-ended mode")
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
        '{\n "compiled": true,\n'
        f' "compiled_children": {node.compiled_children},\n'
        f' "created_at_iteration": {node.created_at_iteration},\n'
        f' "id": {node.id},\n'
        f' "parent_id": {"null" if node.parent_id is None else node.parent_id},\n'
        f' "payload_ref": {encode_basestring_ascii(node.payload_ref)},\n'
        f' "scores": {scores}\n}}\n'
    )


def _parse_node(data: bytes, source: str) -> AgentNode:
    try:
        raw = json.loads(data.decode("utf-8"))
        scores = {
            name: DomainScores(
                train=float(s["train"]),
                validation=None if s["validation"] is None else float(s["validation"]),
                test=None if s["test"] is None else float(s["test"]),
            )
            for name, s in raw["scores"].items()
        }
        if not scores:  # as the fold refuses an `evaluation` without a domain
            raise ValueError("record holds no domain's scores")
        return AgentNode(
            id=raw["id"],
            parent_id=raw["parent_id"],
            payload_ref=raw["payload_ref"],
            compiled=raw["compiled"],
            scores=scores,
            compiled_children=raw["compiled_children"],
            created_at_iteration=raw["created_at_iteration"],
        )
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise ArchiveLoadError(f"corrupt node record {source}: {exc}") from exc


def _node_filename(node_id: int) -> str:
    return f"node_{node_id:06d}.json"


def persist(archive: Archive, location: str | Path, run_id: str = "") -> None:
    """Write the records, then the manifest, then remove each `nodes/` file that the
    manifest does not list (a replaced no-open-ended agent's); byte-stable."""
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
    listed = {_node_filename(node.id) for node in archive.nodes}
    with os.scandir(prefix) as entries:  # a kill here leaves only unlisted files
        for entry in entries:
            if entry.name not in listed:
                os.remove(entry.path)


def _read(location: str | Path) -> tuple[Archive, str]:
    """The one reader of `archive/`: reads the manifest and each record once, as
    bytes, and returns the archive rebuilt through `add_node` (`replace_sole_node`
    in no-open-ended mode) with the SHA-256 of those bytes in manifest order.
    Refuses corrupt state with an `ArchiveLoadError` naming the failed file."""
    root = Path(location)
    manifest_path = root / _MANIFEST
    try:
        data = manifest_path.read_bytes()
    except OSError as exc:  # missing, a directory, unreadable
        raise ArchiveLoadError(f"cannot read manifest {manifest_path}: {exc.strerror}") from exc
    digest = hashlib.sha256(data)
    try:
        manifest = json.loads(data.decode("utf-8"))
        mode_tag = manifest["mode_tag"]  # a TypeError unless the manifest is an object
        node_ids = manifest["node_ids"]
        count = manifest["node_count"]
        if type(node_ids) is not list:
            raise TypeError(f"node_ids {node_ids!r} is not a list")
    except (KeyError, RecursionError, TypeError, ValueError) as exc:  # ValueError: bad UTF-8 too
        raise ArchiveLoadError(f"corrupt manifest {manifest_path}: {exc}") from exc
    for node_id in node_ids:
        if type(node_id) is not int:  # a node's id rule: `true` is not node 1
            raise ArchiveLoadError(f"{manifest_path}: node id {node_id!r} is not an integer")
    if count != len(node_ids):
        raise ArchiveLoadError(
            f"manifest {manifest_path} lists {len(node_ids)} ids but node_count={count}"
        )
    archive = Archive(mode_tag=mode_tag)
    sole = mode_tag == "no-open-ended"
    stored = []
    for node_id in node_ids:
        name = _node_filename(node_id)
        try:
            data = (root / _NODE_DIR / name).read_bytes()
        except OSError as exc:
            raise ArchiveLoadError(f"cannot read node record {name}: {exc.strerror}") from exc
        digest.update(data)
        node = _parse_node(data, name)
        stored.append(node.compiled_children)
        node.compiled_children = 0
        try:
            if node.id != node_id:
                raise ArchiveError(f"carries id {node.id}, manifest says {node_id}")
            # a record `replace_sole_node` would rewrite without a word
            if sole and (archive.nodes or node.parent_id is not None):
                raise ArchiveError("a no-open-ended archive holds one node, without a parent")
            (replace_sole_node if sole else add_node)(archive, node)
        except ArchiveError as exc:
            raise ArchiveLoadError(f"node record {name}: {exc}") from exc
    for node, count in zip(archive.nodes, stored):
        if node.compiled_children != count:
            raise ArchiveLoadError(f"node record {_node_filename(node.id)} stores "
                                   f"compiled_children={count}, edges say {node.compiled_children}")
    return archive, digest.hexdigest()


def load(location: str | Path) -> Archive:
    """The archive rebuilt under a run's rules; refuses corrupt state, naming the file."""
    return _read(location)[0]


def fingerprint(location: str | Path) -> str:
    """SHA-256 over manifest plus node records in manifest order; refuses what `load` does."""
    return _read(location)[1]

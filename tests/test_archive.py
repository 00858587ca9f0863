from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoarchive.archive import (
    AgentNode,
    Archive,
    ArchiveError,
    ArchiveLoadError,
    DomainScores,
    add_node,
    check_consistency,
    fingerprint,
    load,
    persist,
    replace_sole_node,
)

from conftest import make_node, random_tree_archive


# --- oracles -----------------------------------------------------------------


def reachable_oracle(arch: Archive, start: int) -> set[int]:
    """Exhaustive reachability by repeated full edge scans."""
    edges = [(n.parent_id, n.id) for n in arch.nodes if n.parent_id is not None]
    out: set[int] = set()
    changed = True
    while changed:
        changed = False
        for parent, child in edges:
            if (parent == start or parent in out) and child not in out:
                out.add(child)
                changed = True
    return out


def bfs_depth_oracle(arch: Archive, node_id: int) -> int:
    depth = 0
    current = arch.node(node_id).parent_id
    while current is not None:
        depth += 1
        current = arch.node(current).parent_id
    return depth


# --- add_node ----------------------------------------------------------------


def test_add_root_to_empty_archive():
    arch = Archive()
    add_node(arch, make_node(0, None))
    assert len(arch) == 1


def test_add_compiled_child_bumps_parent_count():
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    assert arch.node(0).compiled_children == 1


def test_non_compiled_child_is_not_appended():
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    add_node(arch, make_node(2, 1, compiled=False))
    assert len(arch) == 2
    assert arch.node(1).compiled_children == 0


def test_duplicate_id_aborts():
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    with pytest.raises(ArchiveError, match="duplicate"):
        add_node(arch, make_node(1, 0))


def test_dangling_parent_aborts():
    arch = Archive()
    add_node(arch, make_node(0, None))
    with pytest.raises(ArchiveError, match="dangling"):
        add_node(arch, make_node(1, 7))


def test_child_without_parent_aborts():
    arch = Archive()
    add_node(arch, make_node(0, None))
    with pytest.raises(ArchiveError):
        add_node(arch, make_node(1, None))


def test_replace_sole_node_requires_mode():
    arch = Archive(mode_tag="full")
    add_node(arch, make_node(0, None))
    with pytest.raises(ArchiveError):
        replace_sole_node(arch, make_node(1, 0))


def test_replace_sole_node_keeps_size_one():
    arch = Archive(mode_tag="no-open-ended")
    add_node(arch, make_node(0, None))
    replace_sole_node(arch, make_node(1, 0))
    assert [n.id for n in arch.nodes] == [1]
    assert arch.nodes[0].parent_id is None
    # invalid candidates leave the previous agent in place
    replace_sole_node(arch, make_node(2, 1, compiled=False))
    assert [n.id for n in arch.nodes] == [1]


def test_node_lookup_finds_sole_node_after_replace():
    arch = Archive(mode_tag="no-open-ended")
    add_node(arch, make_node(0, None))
    replace_sole_node(arch, make_node(7, 0, score=0.9))
    assert arch.node(7).scores["main"].train == 0.9
    with pytest.raises(KeyError):
        arch.node(0)


# --- tree queries ------------------------------------------------------------


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_queries_match_oracles_on_random_trees(size: int, seed: int):
    arch = random_tree_archive(np.random.default_rng(seed), size)
    children = {node.id: [c.id for c in arch.nodes if c.parent_id == node.id]
                for node in arch.nodes}
    for node in arch.nodes:
        for child in children[node.id]:
            assert bfs_depth_oracle(arch, child) == bfs_depth_oracle(arch, node.id) + 1
        # walking the parent links down reaches exactly the nodes the edge scans reach
        offspring, frontier = set(), list(children[node.id])
        while frontier:
            current = frontier.pop()
            offspring.add(current)
            frontier.extend(children[current])
        assert offspring == reachable_oracle(arch, node.id)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_compiled_children_recomputable_from_edges(size: int, seed: int):
    arch = random_tree_archive(np.random.default_rng(seed), size)
    check_consistency(arch)
    for node in arch.nodes:
        actual = sum(1 for c in arch.nodes if c.parent_id == node.id and c.compiled)
        assert node.compiled_children == actual


# --- persistence --------------------------------------------------------------


def test_round_trip_rooted_archive(tmp_path):
    arch = Archive()
    add_node(arch, make_node(0, None, score=0.25))
    persist(arch, tmp_path / "a")
    loaded = load(tmp_path / "a")
    assert loaded.mode_tag == arch.mode_tag
    assert len(loaded) == 1
    assert loaded.node(0).scores["main"].train == 0.25


def test_round_trip_preserves_scores_bit_exactly(tmp_path, rng):
    arch = random_tree_archive(rng, 50)
    for node in arch.nodes:
        node.scores["main"] = DomainScores(
            train=float(rng.random()),
            validation=float(rng.random()),
            test=float(rng.random()),
        )
    persist(arch, tmp_path / "a", run_id="r1")
    loaded = load(tmp_path / "a")
    assert len(loaded) == 50
    for original, restored in zip(arch.nodes, loaded.nodes):
        assert restored.id == original.id
        assert restored.parent_id == original.parent_id
        assert restored.payload_ref == original.payload_ref
        assert restored.compiled == original.compiled
        assert restored.compiled_children == original.compiled_children
        assert restored.created_at_iteration == original.created_at_iteration
        for name in original.scores:
            assert restored.scores[name].train == original.scores[name].train
            assert restored.scores[name].validation == original.scores[name].validation
            assert restored.scores[name].test == original.scores[name].test


def test_persist_is_byte_stable(tmp_path, rng):
    arch = random_tree_archive(rng, 10)
    persist(arch, tmp_path / "a", run_id="r")
    first = fingerprint(tmp_path / "a")
    persist(arch, tmp_path / "a", run_id="r")
    assert fingerprint(tmp_path / "a") == first


def json_dumps_record(node: AgentNode) -> str:
    """A node record as `json.dumps` writes it: the bytes `persist` must write."""
    def text(value):
        return None if value is None else repr(float(value))

    record = {
        "id": node.id,
        "parent_id": node.parent_id,
        "payload_ref": node.payload_ref,
        "compiled": node.compiled,
        "compiled_children": node.compiled_children,
        "created_at_iteration": node.created_at_iteration,
        "scores": {name: {"train": text(s.train), "validation": text(s.validation),
                          "test": text(s.test)} for name, s in node.scores.items()},
    }
    return json.dumps(record, sort_keys=True, indent=1) + "\n"


# non-ASCII, quote, backslash, control characters and U+2028 among any others
AWKWARD_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\n\x7f\u00e9\u2028\U0001f600')
                       | st.characters(), max_size=8)
EDGE_SCORES = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-7]) | st.floats(0.0, 1.0)
DOMAIN_SCORES = st.builds(DomainScores, EDGE_SCORES, st.none() | EDGE_SCORES,
                          st.none() | EDGE_SCORES)


@given(
    node_id=st.integers(0, 10**7),
    parent_id=st.none() | st.integers(0, 10**7),
    payload_ref=AWKWARD_TEXT,
    compiled=st.booleans(),
    domains=st.lists(st.tuples(AWKWARD_TEXT, DOMAIN_SCORES), max_size=4,
                     unique_by=lambda pair: pair[0]),
    compiled_children=st.integers(0, 10**4),
    iteration=st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_persist_writes_the_bytes_json_dumps_writes(node_id, parent_id, payload_ref, compiled,
                                                    domains, compiled_children, iteration):
    # domains inserted in reverse name order, so the record must sort them
    scores = dict(sorted(domains, reverse=True))
    node = AgentNode(node_id, parent_id, payload_ref, compiled, scores, compiled_children,
                     iteration)
    with tempfile.TemporaryDirectory() as location:
        persist(Archive(nodes=[node]), location)
        written = Path(location, "nodes", f"node_{node_id:06d}.json").read_bytes()
    assert written == json_dumps_record(node).encode()


def test_load_truncated_record_names_the_node(tmp_path, rng):
    arch = random_tree_archive(rng, 5)
    persist(arch, tmp_path / "a")
    victim = tmp_path / "a" / "nodes" / "node_000003.json"
    victim.write_text(victim.read_text()[:20], encoding="utf-8")
    with pytest.raises(ArchiveLoadError, match="node_000003"):
        load(tmp_path / "a")


def test_load_missing_record_names_the_node(tmp_path, rng):
    arch = random_tree_archive(rng, 4)
    persist(arch, tmp_path / "a")
    (tmp_path / "a" / "nodes" / "node_000002.json").unlink()
    with pytest.raises(ArchiveLoadError, match="node_000002"):
        load(tmp_path / "a")


def test_load_rejects_count_mismatch(tmp_path, rng):
    arch = random_tree_archive(rng, 3)
    persist(arch, tmp_path / "a")
    manifest = tmp_path / "a" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["node_count"] = 7
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ArchiveLoadError):
        load(tmp_path / "a")


def test_score_out_of_range_rejected():
    with pytest.raises(ValueError):
        DomainScores(train=1.5)
    with pytest.raises(ValueError):
        AgentNode(id=0, parent_id=None, payload_ref="p", compiled=True,
                  scores={"d": DomainScores(train=0.5, validation=-0.1)})

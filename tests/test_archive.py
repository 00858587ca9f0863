from __future__ import annotations

import json

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
    descendants,
    fingerprint,
    lineage,
    load,
    persist,
    replace_sole_node,
    tree_distance,
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


def test_descendants_of_leaf_is_empty():
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    assert descendants(arch, 1) == set()


def test_descendants_of_chain_root():
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    add_node(arch, make_node(2, 1))
    assert descendants(arch, 0) == {1, 2}


def test_descendants_unknown_id():
    arch = Archive()
    add_node(arch, make_node(0, None))
    with pytest.raises(KeyError):
        descendants(arch, 5)


def test_tree_distance_basics():
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    add_node(arch, make_node(2, 1))
    add_node(arch, make_node(3, 2))
    assert tree_distance(arch, 0, 1) == 1
    assert tree_distance(arch, 0, 3) == 3
    assert tree_distance(arch, 2, 2) == 0


def test_tree_distance_rejects_non_descendant():
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    add_node(arch, make_node(2, 0))
    with pytest.raises(ValueError):
        tree_distance(arch, 1, 2)


def test_lineage_basics():
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    add_node(arch, make_node(2, 1))
    assert lineage(arch, 0) == [0]
    assert lineage(arch, 2) == [0, 1, 2]


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_queries_match_oracles_on_random_trees(size: int, seed: int):
    arch = random_tree_archive(np.random.default_rng(seed), size)
    for node in arch.nodes:
        offspring = descendants(arch, node.id)
        assert offspring == reachable_oracle(arch, node.id)
        for j in offspring:
            expected = bfs_depth_oracle(arch, j) - bfs_depth_oracle(arch, node.id)
            assert tree_distance(arch, node.id, j) == expected
        # reversing parent links yields the same lineage path
        path = lineage(arch, node.id)
        walked = [node.id]
        while arch.node(walked[-1]).parent_id is not None:
            walked.append(arch.node(walked[-1]).parent_id)
        assert path == list(reversed(walked))


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

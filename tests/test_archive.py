from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

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
    fingerprint,
    load,
    persist,
    replace_sole_node,
)

import oracles
from conftest import make_node


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


def test_a_node_that_did_not_compile_is_refused():
    # a run archives only children that compiled, so no node can say otherwise
    arch = Archive()
    add_node(arch, make_node(0, None))
    add_node(arch, make_node(1, 0))
    for compiled in (False, None, 1, "true"):
        with pytest.raises(ValueError, match=f"compiled is {re.escape(repr(compiled))}: "):
            add_node(arch, make_node(2, 1, compiled=compiled))
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
    # a candidate that did not compile is refused, and the previous agent stays
    with pytest.raises(ValueError, match="compiled is False: "):
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


@given(oracles.archives())
@settings(max_examples=80, deadline=None)
def test_queries_match_oracles_on_random_trees(arch: Archive):
    # the parent links `add_node` kept form one tree: every walk up from a node
    # passes exactly the nodes whose descendants hold it, each at its distance
    pairs = 0
    for node in arch:
        above, steps = node.parent_id, 1
        while above is not None:
            assert node.id in oracles.descendants(arch, above)
            assert oracles.distance(arch, above, node.id) == steps
            above, steps, pairs = arch.node(above).parent_id, steps + 1, pairs + 1
    assert pairs == sum(len(oracles.descendants(arch, node.id)) for node in arch)


@given(oracles.archives())
@settings(max_examples=50, deadline=None)
def test_compiled_children_recomputable_from_edges(arch: Archive):
    with tempfile.TemporaryDirectory() as tmp:
        persist(arch, tmp)
        assert load(tmp) == arch  # load recounts compiled_children from the parent links
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
    arch = oracles.seeded_tree(rng, 50)
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
    arch = oracles.seeded_tree(rng, 10)
    persist(arch, tmp_path / "a", run_id="r")
    first = fingerprint(tmp_path / "a")
    persist(arch, tmp_path / "a", run_id="r")
    assert fingerprint(tmp_path / "a") == first


# non-ASCII, quote, backslash, control characters and U+2028 among any others
AWKWARD_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\n\x7f\u00e9\u2028\U0001f600')
                       | st.characters(), max_size=8)
DOMAIN_SCORES = st.builds(DomainScores, oracles.EDGE_SCORES, st.none() | oracles.EDGE_SCORES,
                          st.none() | oracles.EDGE_SCORES)


@given(
    node_id=st.integers(0, 10**7),
    parent_id=st.none() | st.integers(0, 10**7),
    payload_ref=AWKWARD_TEXT,
    domains=st.lists(st.tuples(AWKWARD_TEXT, DOMAIN_SCORES), max_size=4,
                     unique_by=lambda pair: pair[0]),
    compiled_children=st.integers(0, 10**4),
    iteration=st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_persist_writes_the_bytes_json_dumps_writes(node_id, parent_id, payload_ref, domains,
                                                    compiled_children, iteration):
    # domains inserted in reverse name order, so the record must sort them; `compiled`
    # is True in every node
    scores = dict(sorted(domains, reverse=True))
    oracles.assert_record_bytes(AgentNode(node_id, parent_id, payload_ref, True, scores,
                                          compiled_children, iteration))


def test_load_truncated_record_names_the_node(tmp_path, rng):
    arch = oracles.seeded_tree(rng, 5)
    persist(arch, tmp_path / "a")
    victim = tmp_path / "a" / "nodes" / "node_000003.json"
    victim.write_text(victim.read_text()[:20], encoding="utf-8")
    with pytest.raises(ArchiveLoadError, match="node_000003"):
        load(tmp_path / "a")


def test_load_missing_record_names_the_node(tmp_path, rng):
    arch = oracles.seeded_tree(rng, 4)
    persist(arch, tmp_path / "a")
    (tmp_path / "a" / "nodes" / "node_000002.json").unlink()
    with pytest.raises(ArchiveLoadError, match="node_000002"):
        load(tmp_path / "a")


def test_load_rejects_count_mismatch(tmp_path, rng):
    arch = oracles.seeded_tree(rng, 3)
    persist(arch, tmp_path / "a")
    manifest = tmp_path / "a" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["node_count"] = 7
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ArchiveLoadError):
        load(tmp_path / "a")


def rewrite_json(path: Path, fields: dict) -> None:
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


# file -> fields it is rewritten with, over a persisted tree 0 <- 1 <- 2 and 0 <- 3;
# then the record that load names, and the cause
MANIFEST, NODE = "manifest.json", "nodes/node_{:06d}.json".format
LOAD_REFUSALS = {
    "ids out of order": ({MANIFEST: {"node_ids": [0, 2, 1, 3]}}, 2, "non-contiguous node id 2"),
    "a gap in the ids": ({MANIFEST: {"node_ids": [0, 1, 3], "node_count": 3}}, 3,
                         "non-contiguous node id 3"),
    "a second root": ({NODE(2): {"parent_id": None}}, 2, "has no parent but is not the root"),
    "a parent at its child's id": ({NODE(2): {"parent_id": 2}}, 2, "dangling parent 2"),
    "a parent after its child's id": ({NODE(1): {"parent_id": 3}}, 1, "dangling parent 3"),
    "a dangling parent": ({NODE(3): {"parent_id": 7}}, 3, "dangling parent 7"),
    "a parent id that is a string": ({NODE(1): {"parent_id": "0"}}, 1,
                                     "parent_id '0' is not an integer"),
    "a payload_ref that is a number": ({NODE(1): {"payload_ref": 5}}, 1,
                                       "payload_ref 5 is not a string"),
    "compiled_children one too many": ({NODE(1): {"compiled_children": 2}}, 1,
                                       "compiled_children=2, edges say 1"),
    "compiled_children one too few": ({NODE(0): {"compiled_children": 1}}, 0,
                                      "compiled_children=1, edges say 2"),
    "a record that did not compile": (
        {NODE(3): {"compiled": False}}, 3,
        "compiled is False: only an agent that compiled is archived"),
    "no-open-ended with two ids": (
        {MANIFEST: {"mode_tag": "no-open-ended", "node_ids": [0, 3], "node_count": 2},
         NODE(3): {"parent_id": None}}, 3,
        "one node, without a parent"),
    "a no-open-ended record with a parent": (
        {MANIFEST: {"mode_tag": "no-open-ended", "node_ids": [2], "node_count": 1}}, 2,
        "one node, without a parent"),
    "a record at another id's slot": ({NODE(2): {"id": 5}}, 2, "carries id 5, manifest says 2"),
    "a root with a parent": ({NODE(0): {"parent_id": 1}}, 0, "first node must be the root"),
    "a negative compiled_children": ({NODE(3): {"compiled_children": -1}}, 3,
                                     "compiled_children must be non-negative"),
    "a negative created_at_iteration": ({NODE(1): {"created_at_iteration": -1}}, 1,
                                        "created_at_iteration must be non-negative"),
}


@pytest.mark.parametrize("name", sorted(LOAD_REFUSALS))
def test_load_refuses_a_tree_a_run_could_not_build(tmp_path, name):
    arch = Archive()
    for node_id, parent_id in [(0, None), (1, 0), (2, 1), (3, 0)]:
        add_node(arch, make_node(node_id, parent_id))
    persist(arch, tmp_path / "a")
    assert load(tmp_path / "a") == arch
    edits, record, cause = LOAD_REFUSALS[name]
    for path, fields in edits.items():
        rewrite_json(tmp_path / "a" / path, fields)
    with pytest.raises(ArchiveLoadError) as caught:
        load(tmp_path / "a")
    assert f"node record node_{record:06d}.json" in str(caught.value)
    assert cause in str(caught.value)


@pytest.mark.parametrize("value", [True, 1.5, "1"])
@pytest.mark.parametrize("field", ["id", "parent_id", "compiled_children",
                                   "created_at_iteration"])
def test_load_refuses_a_node_field_that_is_not_an_integer(tmp_path, field, value):
    # `true` and `1.5` would load as the id, parent or count 1 and be written back as
    # `True` and `1.5`; only an int that is not a bool is one
    persist(oracles.tree_archive([None, 0, 1, 0], [0.5] * 4), tmp_path / "a")
    rewrite_json(tmp_path / "a" / NODE(1), {field: value})
    with pytest.raises(ArchiveLoadError) as caught:
        load(tmp_path / "a")
    assert "node record node_000001.json" in str(caught.value)
    assert f"{field} {value!r} is not an integer" in str(caught.value)


@pytest.mark.parametrize("index, value", [(1, True), (1, 1.0), (2, "2")])
def test_load_refuses_a_manifest_node_id_that_is_not_an_integer(tmp_path, index, value):
    # `true` would load as node 1, and `1.0` or `"2"` fail to name a record file
    persist(oracles.tree_archive([None, 0, 1], [0.5] * 3), tmp_path / "a")
    node_ids = [0, 1, 2]
    node_ids[index] = value
    rewrite_json(tmp_path / "a" / MANIFEST, {"node_ids": node_ids})
    with pytest.raises(ArchiveLoadError) as caught:
        load(tmp_path / "a")
    assert str(caught.value) == f"{tmp_path / 'a' / MANIFEST}: node id {value!r} is not an integer"


def with_fields(**fields):
    return lambda target: rewrite_json(target, fields)


def write(data: bytes):
    return lambda target: target.write_bytes(data)


def latin1_in_first_string(target: Path) -> None:
    # one byte that is not UTF-8 inside a string value; the JSON is otherwise whole
    target.write_bytes(target.read_bytes().replace(b'": "', b'": "\xe9', 1))


def torn(target: Path) -> None:
    target.write_bytes(target.read_bytes()[:20])


def a_directory(target: Path) -> None:
    target.unlink()
    target.mkdir()


# what load and fingerprint both refuse: file -> how it is edited; the file that
# both errors name is the file edited
READ_REFUSALS = {
    "node_ids a number": (MANIFEST, with_fields(node_ids=5)),
    "node_ids a string": (MANIFEST, with_fields(node_ids="012")),
    "a node id true": (MANIFEST, with_fields(node_ids=[0, True, 2])),
    "a node id 1.0": (MANIFEST, with_fields(node_ids=[0, 1.0, 2])),
    "node_count not the length": (MANIFEST, with_fields(node_count=7)),
    "a manifest that is an array": (MANIFEST, write(b"[0, 1, 2]")),
    "a manifest that is not UTF-8": (MANIFEST, latin1_in_first_string),
    "no manifest": (MANIFEST, Path.unlink),
    "a manifest that is a directory": (MANIFEST, a_directory),
    "a missing record": (NODE(1), Path.unlink),
    "a record that is a directory": (NODE(1), a_directory),
    "a record that is not UTF-8": (NODE(1), latin1_in_first_string),
    "a torn record": (NODE(1), torn),
    "scores an array": (NODE(1), with_fields(scores=[])),
    "scores empty": (NODE(1), with_fields(scores={})),
    "a manifest nested past the parser's depth": (MANIFEST, write(b"[" * 10**5)),
    "a record nested past the parser's depth": (NODE(1), write(b"[" * 10**5)),
}


@pytest.mark.parametrize("name", sorted(READ_REFUSALS))
def test_load_and_fingerprint_refuse_alike(tmp_path, name):
    persist(oracles.tree_archive([None, 0, 1], [0.5] * 3), tmp_path / "a")
    load(tmp_path / "a")
    path, edit = READ_REFUSALS[name]
    edit(tmp_path / "a" / path)
    errors = []
    for read in (load, fingerprint):
        with pytest.raises(ArchiveLoadError) as caught:
            read(tmp_path / "a")
        errors.append(str(caught.value))
    assert Path(path).name in errors[0]
    assert errors[0] == errors[1]


def test_fingerprint_is_the_sha256_of_the_manifest_then_the_records_in_its_order(tmp_path, rng):
    persist(oracles.seeded_tree(rng, 5), tmp_path / "a")
    files = [MANIFEST, *(NODE(node_id) for node_id in range(5))]
    joined = b"".join((tmp_path / "a" / path).read_bytes() for path in files)
    assert fingerprint(tmp_path / "a") == hashlib.sha256(joined).hexdigest()


def test_score_out_of_range_rejected():
    with pytest.raises(ValueError):
        DomainScores(train=1.5)
    with pytest.raises(ValueError):
        AgentNode(id=0, parent_id=None, payload_ref="p", compiled=True,
                  scores={"d": DomainScores(train=0.5, validation=-0.1)})

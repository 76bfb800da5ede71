"""Forks of resident indexes (:meth:`repro.serve.ResidentIndex.fork`).

A fork is what every churned loadtest leg runs on: it must start as a
freshly built, identically primed index would, and nothing the write
path, a refresh or a launch does to it may reach the index it was
forked from.
"""

import copy
import json
import random

import pytest

from repro.geometry.aabb import AABB
from repro.mutation import (
    MutableResidentIndex,
    MutationConfig,
    RebuildPolicy,
    make_mutator,
)
from repro.mutation.stream import WriteProfile
from repro.serve import LoadProfile, build_resident_index, run_loadtest
from repro.serve.backends import LaunchBackend
from repro.serve.loadtest import run_qps_sweep
from repro.trees import BPlusTree
from tests.bvh_reference import tree_records
from tests.test_mutation import TINY

FLAVORS = ("tta", "ttaplus")

#: Enough writes per class for refits and at least one installed
#: rebuild within the profile.
MUTATION = MutationConfig(
    write=WriteProfile(mix={"insert": 200.0, "delete": 100.0}, seed=9),
    policy=RebuildPolicy(mode="writes", write_threshold=24),
    refit_threshold=8)


def primed(query_class):
    """A tiny index with its lowering memo and its workload's job cache
    primed for both flavors."""
    index = build_resident_index(query_class,
                                 dict(TINY[query_class], seed=5))
    for flavor in FLAVORS:
        index.batch_jobs(range(index.n_canonical), flavor)
        index.workload.jobs(flavor)
    return index


def profile(query_class):
    return LoadProfile(qps=600.0, duration_s=0.25, warmup_s=0.05,
                       mix={query_class: 1.0}, seed=9)


def report(index, platform, mutation=None):
    out = run_loadtest(platform, {index.query_class: index},
                       profile(index.query_class), mutation=mutation)
    return json.dumps(out.to_dict(), sort_keys=True)


def verified_launch(index, platform):
    """One launch of the whole canonical stream, every result checked
    against the golden answer of the index's live set."""
    qids = list(range(index.n_canonical))
    backend = LaunchBackend(platform, max_verify=len(qids))
    assert not backend.launch(index, qids).failed


def containers(index):
    """The containers the write path changes in place."""
    wl = index.workload
    if index.query_class == "point":
        return [wl.golden]
    if index.query_class == "range":
        return [wl.entries]
    if index.query_class == "knn":
        return [wl.tree.points, wl.tree._deleted]
    return [wl.points, wl._dead_points, wl.bvh.primitives,
            wl.bvh._prim_order]


def tree_nodes(index):
    wl = index.workload
    return wl.bvh.nodes() if index.query_class == "radius" \
        else wl.tree.nodes()


def node_state(node):
    """A tree node's fields by value, its children by identity."""
    state = {}
    for slot in type(node).__slots__:
        value = getattr(node, slot)
        if isinstance(value, AABB):
            value = (tuple(value.lo), tuple(value.hi))
        elif slot in ("left", "right", "next"):
            value = id(value)
        elif slot == "children":
            value = [id(child) for child in value]
        elif isinstance(value, list):
            value = list(value)
        state[slot] = value
    return state


def snapshot(index):
    wl = index.workload
    return {
        "quality": make_mutator(index.query_class, wl).quality(),
        "nodes": [node_state(node) for node in tree_nodes(index)],
        # A BVH's boxes and slices live in its view, not its nodes.
        "view": (tree_records(wl.bvh) if index.query_class == "radius"
                 else None),
        "image_bytes": wl.image.size_bytes,
        "addresses": [node.address for node in wl.image.nodes],
        "written": [copy.copy(c) for c in containers(index)],
        "jobs_cache": dict(wl._jobs_cache),
        "lowered": dict(index._lowered),
    }


@pytest.mark.parametrize("query_class", sorted(TINY))
class TestFork:
    def test_churned_fork_leaves_parent_untouched(self, query_class):
        parent = primed(query_class)
        read_before = report(parent, "tta")
        before = snapshot(parent)

        fork = parent.fork()
        churned = json.loads(report(fork, "ttaplus", mutation=MUTATION))
        counters = churned["mutation"]["per_class"][query_class]
        assert counters["writes"] > 0 and counters["refits"] > 0
        assert counters["rebuilds"] >= 1
        # Launches on the churned fork, refreshed as a dispatch would
        # after the writes that followed its last one.
        MutableResidentIndex(fork)._refresh()
        for platform in ("gpu", "tta"):
            verified_launch(fork, platform)

        assert snapshot(parent) == before
        assert report(parent, "tta") == read_before

    def test_churned_fork_matches_fresh_index(self, query_class):
        fork = primed(query_class).fork()
        assert report(fork, "ttaplus", mutation=MUTATION) == \
            report(primed(query_class), "ttaplus", mutation=MUTATION)

    def test_parent_writes_do_not_reach_the_fork(self, query_class):
        parent = primed(query_class)
        fork = parent.fork()
        report(parent, "gpu", mutation=MUTATION)
        MutableResidentIndex(parent)._refresh()
        fresh = primed(query_class)
        for platform in ("gpu", "ttaplus"):
            assert report(fork, platform) == report(fresh, platform)

    def test_fork_shares_values_and_copies_containers(self, query_class):
        parent = primed(query_class)
        fork = parent.fork()
        assert fork._lowered == parent._lowered
        assert fork._lowered is not parent._lowered
        for key, (steps, result) in parent._lowered.items():
            assert fork._lowered[key][0] is steps
            assert fork._lowered[key][1] is result
        assert fork._canonical is parent._canonical
        # No node is shared, and the fork's image lays out its own.
        nodes = tree_nodes(fork)
        assert not {id(n) for n in nodes} & \
            {id(n) for n in tree_nodes(parent)}
        assert {id(n) for n in fork.workload.image.nodes} == \
            {id(n) for n in nodes}
        assert [n.address for n in fork.workload.image.nodes] == \
            [n.address for n in parent.workload.image.nodes]
        for mine, theirs in zip(containers(fork), containers(parent)):
            assert mine == theirs and mine is not theirs

    def test_deep_copy_is_a_fork(self, query_class):
        parent = primed(query_class)
        twins = copy.deepcopy({"a": parent, "b": parent})
        assert twins["a"] is twins["b"] is not parent
        key = next(iter(parent._lowered))
        assert twins["a"]._lowered[key][0] is parent._lowered[key][0]


def test_qps_sweep_legs_start_from_the_pristine_index():
    """Each churned (platform, qps) leg forks the caller's indexes:
    they stay pristine, and a leg repeated later reports the same."""
    parent = primed("point")
    before = snapshot(parent)
    sweep = run_qps_sweep(["tta"], [300.0, 600.0, 300.0],
                          {"point": parent}, profile("point"),
                          mutation=MUTATION)
    first, _, again = sweep["curves"]["tta"]
    assert first["mutation"]["writes_applied"] > 0
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(again, sort_keys=True)
    assert snapshot(parent) == before


def test_bare_btree_deep_copy_is_a_fork():
    """The leaf chain is as long as the leaf count, too deep for the
    generic recursive copy: a B-Tree deep copy forks it instead."""
    tree = BPlusTree.bulk_load(range(0, 32_768, 2))
    twin = copy.deepcopy(tree)
    twin.insert(1)
    twin.check_invariants()
    tree.check_invariants()
    assert twin.range_scan(0, 4) == [0, 1, 2, 4]
    assert tree.range_scan(0, 4) == [0, 2, 4]


def test_fork_of_an_unrefreshed_index():
    """Writes since the last refresh can leave image nodes the tree no
    longer holds; the fork still lays them out, and serves once
    refreshed."""
    parent = primed("point")
    mutator = make_mutator("point", parent.workload)
    rng = random.Random(1)
    for _ in range(300):
        mutator.apply("delete", rng)
    live = {id(n) for n in tree_nodes(parent)}
    assert any(id(n) not in live for n in parent.workload.image.nodes)
    fork = parent.fork()
    assert [n.address for n in fork.workload.image.nodes] == \
        [n.address for n in parent.workload.image.nodes]
    MutableResidentIndex(fork)._refresh()
    verified_launch(fork, "tta")

"""Unit and property tests for the Barnes-Hut tree."""

import math
import random

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry import Vec3
from repro.trees import BarnesHutTree
from repro.trees.octree import _MAX_DEPTH, _WALK_BLOCK, make_body
from tests.octree_reference import (unblocked_body_walk,
                                    unblocked_union_walk, warp_walk)


def random_bodies(n, dims=3, seed=0, span=10.0):
    rng = random.Random(seed)
    bodies = []
    for i in range(n):
        pos = Vec3(rng.uniform(-span, span), rng.uniform(-span, span),
                   rng.uniform(-span, span) if dims == 3 else 0.0)
        bodies.append(make_body(pos, rng.uniform(0.5, 2.0), i))
    return bodies


class TestConstruction:
    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            BarnesHutTree(random_bodies(4), dims=4)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            BarnesHutTree([], dims=3)

    def test_rejects_bad_theta(self):
        with pytest.raises(ConfigurationError):
            BarnesHutTree(random_bodies(4), theta=0)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_mass_conserved(self, dims):
        bodies = random_bodies(100, dims=dims)
        tree = BarnesHutTree(bodies, dims=dims)
        assert tree.root.mass == pytest.approx(sum(b.mass for b in bodies))

    @pytest.mark.parametrize("dims", [2, 3])
    def test_counts_conserved(self, dims):
        bodies = random_bodies(64, dims=dims, seed=1)
        tree = BarnesHutTree(bodies, dims=dims)
        assert tree.root.count == 64
        leaf_bodies = sum(len(n.bodies) for n in tree.nodes() if n.is_leaf)
        assert leaf_bodies == 64

    def test_com_is_weighted_mean(self):
        bodies = [make_body(Vec3(0, 0, 0), 1.0, 0),
                  make_body(Vec3(4, 0, 0), 3.0, 1)]
        tree = BarnesHutTree(bodies, dims=3)
        assert tree.root.com.x == pytest.approx(3.0)

    def test_coincident_bodies_handled(self):
        bodies = [make_body(Vec3(1, 1, 1), 1.0, i) for i in range(4)]
        bodies.append(make_body(Vec3(-1, -1, -1), 1.0, 4))
        tree = BarnesHutTree(bodies, dims=3)
        assert tree.root.count == 5

    def test_bodies_inside_their_cells(self):
        tree = BarnesHutTree(random_bodies(128, seed=2), dims=3)
        for node in tree.nodes():
            for b in node.bodies:
                assert abs(b.position.x - node.center.x) <= node.half * 1.0001
                assert abs(b.position.y - node.center.y) <= node.half * 1.0001
                assert abs(b.position.z - node.center.z) <= node.half * 1.0001


class TestForces:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_barnes_hut_close_to_direct(self, dims):
        bodies = random_bodies(200, dims=dims, seed=3)
        tree = BarnesHutTree(bodies, dims=dims, theta=0.4)
        worst = 0.0
        for body in bodies[:40]:
            approx = tree.force_on(body).acceleration
            exact = tree.direct_force_on(body)
            scale = max(exact.length(), 1e-9)
            worst = max(worst, (approx - exact).length() / scale)
        assert worst < 0.15, f"Barnes-Hut error too large: {worst}"

    def test_theta_zero_limit_equals_direct(self):
        # Tiny theta forces every cell open -> exact summation.
        bodies = random_bodies(50, seed=4)
        tree = BarnesHutTree(bodies, theta=1e-6)
        for body in bodies[:10]:
            approx = tree.force_on(body).acceleration
            exact = tree.direct_force_on(body)
            assert (approx - exact).length() < 1e-9

    def test_larger_theta_visits_fewer_nodes(self):
        bodies = random_bodies(300, seed=5)
        tight = BarnesHutTree(bodies, theta=0.2)
        loose = BarnesHutTree(bodies, theta=1.0)
        body = bodies[0]
        assert len(loose.force_on(body).visits) < len(tight.force_on(body).visits)

    def test_self_force_excluded(self):
        bodies = [make_body(Vec3(0, 0, 0), 1.0, 0)]
        tree = BarnesHutTree(bodies)
        acc = tree.force_on(bodies[0]).acceleration
        assert acc.length() == 0.0

    def test_two_body_newton(self):
        bodies = [make_body(Vec3(0, 0, 0), 1.0, 0),
                  make_body(Vec3(2, 0, 0), 1.0, 1)]
        tree = BarnesHutTree(bodies, softening=0.0)
        acc = tree.force_on(bodies[0]).acceleration
        assert acc.x == pytest.approx(1.0 / 4.0)
        assert acc.y == pytest.approx(0.0)

    def test_visit_trace_kinds(self):
        bodies = random_bodies(100, seed=6)
        tree = BarnesHutTree(bodies, theta=0.5)
        visits = tree.force_on(bodies[0]).visits
        kinds = {v.kind for v in visits}
        assert kinds <= {"inner", "leaf"}
        assert "inner" in kinds


@given(st.integers(min_value=2, max_value=80),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_property_force_error_bounded(n, seed, dims):
    bodies = random_bodies(n, dims=dims, seed=seed, span=5.0)
    tree = BarnesHutTree(bodies, dims=dims, theta=0.3, softening=0.05)
    body = bodies[seed % n]
    approx = tree.force_on(body).acceleration
    exact = tree.direct_force_on(body)
    scale = max(exact.length(), 1e-6)
    assert (approx - exact).length() / scale < 0.35


@given(st.integers(min_value=1, max_value=120),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_property_mass_and_count_conserved(n, seed):
    bodies = random_bodies(n, seed=seed)
    tree = BarnesHutTree(bodies)
    assert tree.root.count == n
    assert tree.root.mass == pytest.approx(sum(b.mass for b in bodies))


# -- array walks vs. the scalar references ------------------------------------
def _hex(v):
    return (v.x.hex(), v.y.hex(), v.z.hex())


def _csr_events(tree, csr, i):
    lo, hi = csr.offsets[i], csr.offsets[i + 1]
    nodes = tree.flat().nodes
    return [(nodes[n], "leaf" if leaf else "inner", bool(opened))
            for n, leaf, opened in zip(csr.node[lo:hi].tolist(),
                                       csr.leaf[lo:hi].tolist(),
                                       csr.opened[lo:hi].tolist())]


def _events(visits):
    return [(e.node, e.kind, e.opened) for e in visits]


@st.composite
def walk_cases(draw):
    """Bodies with shuffled ids, a coincident clump (split past the
    maximum depth) and optional zero-mass bodies and cells."""
    n = draw(st.integers(min_value=2, max_value=300))
    dims = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    clump = draw(st.integers(min_value=0, max_value=min(n, 5)))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))
    ids = rng.sample(range(4 * n), n)
    bodies = []
    for i in range(n):
        pos = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5),
                   rng.uniform(-5, 5) if dims == 3 else 0.0)
        if i < clump:
            pos = Vec3(1.25, -0.5, 0.75 if dims == 3 else 0.0)
        mass = 0.0 if rng.random() < zero_frac else rng.uniform(0.5, 2.0)
        bodies.append(make_body(pos, mass, ids[i]))
    rng.shuffle(bodies)
    theta = draw(st.sampled_from([0.2, 0.5, 1.0, 1.5]))
    return BarnesHutTree(bodies, dims=dims, theta=theta, softening=0.05)


@hypothesis.seed(20241)
@given(walk_cases(), st.sampled_from([4, 32]))
@settings(max_examples=60, deadline=None)
def test_array_walks_match_scalar_references(tree, warp_size):
    walk = tree.body_walk()
    for i, body in enumerate(tree.bodies):
        ref = tree.force_on(body)
        assert _hex(walk.accelerations[i]) == _hex(ref.acceleration)
        assert _csr_events(tree, walk.visits, i) == _events(ref.visits)
    union = tree.union_walk(warp_size)
    n_warps = -(-len(tree.bodies) // warp_size)
    assert len(union.offsets) == n_warps + 1
    for w in range(n_warps):
        lanes = tree.bodies[w * warp_size:(w + 1) * warp_size]
        assert _csr_events(tree, union, w) == _events(warp_walk(tree, lanes))


def test_coincident_clump_splits_past_max_depth():
    # The fuzz cases' clump really reaches the shared deep leaf.
    bodies = [make_body(Vec3(1, 1, 1), 1.0, 10 + i) for i in range(3)]
    bodies.append(make_body(Vec3(-1, -1, -1), 0.0, 2))
    tree = BarnesHutTree(bodies, dims=3, theta=0.5)
    assert tree.depth() > _MAX_DEPTH
    walk = tree.body_walk()
    for i, body in enumerate(bodies):
        ref = tree.force_on(body)
        assert _hex(walk.accelerations[i]) == _hex(ref.acceleration)
        assert _csr_events(tree, walk.visits, i) == _events(ref.visits)


def _assert_same_csr(got, want):
    for name in got._fields:
        column, expected = getattr(got, name), getattr(want, name)
        assert column.dtype == expected.dtype, name
        assert np.array_equal(column, expected), name


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("n", [1, _WALK_BLOCK - 1, _WALK_BLOCK,
                               _WALK_BLOCK + 1, 2 * _WALK_BLOCK + 7])
def test_blocked_walks_equal_unblocked_walks(n, dims):
    """Walking block by block changes nothing: accelerations are equal
    floats and every visit column is equal, dtype included."""
    tree = BarnesHutTree(random_bodies(n, dims=dims, seed=n), dims=dims,
                         theta=0.5)
    walk, want = tree._body_walk(), unblocked_body_walk(tree)
    assert walk.accelerations == want.accelerations
    _assert_same_csr(walk.visits, want.visits)
    for warp_size in (4, 32):
        _assert_same_csr(tree.union_walk(warp_size),
                         unblocked_union_walk(tree, warp_size))

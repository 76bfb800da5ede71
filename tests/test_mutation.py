"""Tests for ``repro.mutation``: mutable resident indexes.

Covers the seeded write stream, per-flavor mutators (refit and rebuild
equivalence against a fresh-build oracle, on every serving platform),
the rebuild-vs-refit scheduler, epoch-swapped installs through
``MutableResidentIndex``, the staleness contracts (exec build cache,
BVH SoA views, backend config cache), loadtest integration
(determinism, decay-and-recovery, read-only transparency), and the
campaign churn axis.
"""

import copy
import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.exec import ResultCache, build_key
from repro.mutation import (
    CHURN_KINDS,
    MutableResidentIndex,
    MutationConfig,
    QUALITY_KEYS,
    RebuildPolicy,
    WRITE_OPS,
    WriteProfile,
    apply_churn,
    make_mutator,
    parse_churn,
    parse_rebuild_policy,
    parse_write_mix,
    refresh_workload_image,
)
from repro.mutation.scheduler import (
    rebuild_cycles,
    refit_cycles,
    write_cycles,
)
from repro.mutation.stream import (
    DEFAULT_OP_RATE,
    generate_write_events,
    write_stream_signature,
)
from repro.serve import (
    LaunchBackend,
    LoadProfile,
    build_resident_index,
    run_loadtest,
    run_qps_sweep,
)

#: Tiny construction params: builds in milliseconds, real traversal.
TINY = {
    "point": dict(n_keys=512, n_queries=64),
    "range": dict(n_rects=512, n_queries=32),
    "knn": dict(n_points=512, n_queries=32, k=4),
    "radius": dict(n_points=512, n_queries=32),
}

PLATFORMS = ("gpu", "tta", "ttaplus")


def tiny_index(query_class, seed=0):
    params = dict(TINY[query_class])
    params["seed"] = seed
    return build_resident_index(query_class, params)


def churn(mutator, n, seed=0, ops=WRITE_OPS):
    """Apply ``n`` seeded writes cycling through ``ops``."""
    rng = random.Random(seed)
    for i in range(n):
        mutator.apply(ops[i % len(ops)], rng)


def functional_results(query_class, workload):
    """Exact query results straight off the live tree (no simulator)."""
    if query_class == "point":
        return [workload.tree.search(q).found for q in workload.queries]
    if query_class == "range":
        return [tuple(sorted(workload.tree.range_query(w).ids))
                for w in workload.windows]
    if query_class == "knn":
        return [tuple(sorted(workload.tree.knn(q, workload.k).ids))
                for q in workload.queries]
    return [tuple(sorted(workload.trace(q).hits))
            for q in workload.queries]


def oracle_results(query_class, workload, mutator):
    """The same queries answered by a *fresh bulk build* over the
    mutator's live set — the ground truth mutated trees must match."""
    fresh = mutator.fresh_tree()
    if query_class == "point":
        return [fresh.search(q).found for q in workload.queries]
    if query_class == "range":
        return [tuple(sorted(fresh.range_query(w).ids))
                for w in workload.windows]
    if query_class == "knn":
        out = []
        for q in workload.queries:
            got = fresh.knn(q, workload.k)
            out.append(tuple(sorted(
                round((fresh.points[i] - q).length_squared(), 9)
                for i in got.ids)))
        return out
    from repro.kernels.radius_search import radius_query
    return [tuple(sorted(radius_query(fresh, q, workload.radius).hits))
            for q in workload.queries]


def mutated_results_for_oracle(query_class, workload):
    """``functional_results`` in the oracle's comparison domain (knn
    compares distance multisets: equidistant neighbours may differ)."""
    if query_class != "knn":
        return functional_results(query_class, workload)
    out = []
    for q in workload.queries:
        got = workload.tree.knn(q, workload.k)
        out.append(tuple(sorted(
            round((workload.tree.points[i] - q).length_squared(), 9)
            for i in got.ids)))
    return out


# -- write stream -------------------------------------------------------------------
class TestWriteStream:
    PROFILE = LoadProfile(qps=500, duration_s=0.2, warmup_s=0.05,
                          mix={"point": 1.0}, seed=3)

    def test_parse_write_mix(self):
        mix = parse_write_mix("insert=120,delete=60,update=20")
        assert mix == {"insert": 120.0, "delete": 60.0, "update": 20.0}
        assert parse_write_mix("insert") == {"insert": DEFAULT_OP_RATE}

    @pytest.mark.parametrize("text", [
        "", "zorp=1", "insert=oops", "insert=-5", "insert=1,insert=2",
    ])
    def test_parse_write_mix_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_write_mix(text)

    def test_parse_churn(self):
        mix, n = parse_churn("insert=2,delete=1@256")
        assert mix == {"insert": 2.0, "delete": 1.0} and n == 256

    @pytest.mark.parametrize("text", [
        "insert=1", "insert=1@", "@64", "insert=1@zero", "insert=1@-4",
        "insert=1@0",
    ])
    def test_parse_churn_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_churn(text)

    def test_same_seed_same_stream(self):
        write = WriteProfile(mix={"insert": 200.0, "delete": 100.0}, seed=7)
        first = generate_write_events(self.PROFILE, write, ["point"])
        second = generate_write_events(self.PROFILE, write, ["point"])
        assert first == second
        assert write_stream_signature(first) == \
            write_stream_signature(second)
        assert first, "stream should be non-empty at 300 writes/sec"

    def test_different_seed_different_stream(self):
        base = dict(mix={"insert": 200.0, "delete": 100.0})
        first = generate_write_events(
            self.PROFILE, WriteProfile(seed=1, **base), ["point"])
        second = generate_write_events(
            self.PROFILE, WriteProfile(seed=2, **base), ["point"])
        assert write_stream_signature(first) != \
            write_stream_signature(second)

    def test_warmup_writes_are_tagged_unmeasured(self):
        write = WriteProfile(mix={"insert": 400.0}, seed=0)
        events = generate_write_events(self.PROFILE, write, ["point"])
        warm = [e for e in events if not e.measured]
        assert warm and all(e.t < self.PROFILE.warmup_s for e in warm)
        horizon = self.PROFILE.warmup_s + self.PROFILE.duration_s
        assert all(e.t < horizon for e in events)

    def test_ops_follow_mix_rates(self):
        profile = LoadProfile(qps=100, duration_s=4.0, warmup_s=0.0,
                              mix={"point": 1.0}, seed=0)
        write = WriteProfile(mix={"insert": 300.0, "delete": 100.0}, seed=5)
        events = generate_write_events(profile, write, ["point"])
        inserts = sum(e.op == "insert" for e in events)
        deletes = sum(e.op == "delete" for e in events)
        assert inserts / max(deletes, 1) == pytest.approx(3.0, rel=0.25)


# -- scheduler ----------------------------------------------------------------------
class TestScheduler:
    def test_parse_rebuild_policy(self):
        assert parse_rebuild_policy("never").mode == "never"
        assert parse_rebuild_policy("always").mode == "always"
        p = parse_rebuild_policy("writes:96")
        assert p.mode == "writes" and p.write_threshold == 96
        q = parse_rebuild_policy("quality:1.8")
        assert q.mode == "quality" and q.quality_threshold == 1.8
        # A bare mode takes the dataclass default threshold.
        assert parse_rebuild_policy("writes").write_threshold == \
            RebuildPolicy.write_threshold

    @pytest.mark.parametrize("text", [
        "sometimes", "writes:zero", "writes:0", "quality:-1",
        "quality:oops", "never:3",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_rebuild_policy(text)

    def test_wants_rebuild_modes(self):
        assert not RebuildPolicy(mode="never").wants_rebuild(10**6, 99.0)
        assert RebuildPolicy(mode="always").wants_rebuild(0, 1.0)
        by_writes = RebuildPolicy(mode="writes", write_threshold=100)
        assert not by_writes.wants_rebuild(99, 99.0)
        assert by_writes.wants_rebuild(100, 1.0)
        by_quality = RebuildPolicy(mode="quality", quality_threshold=1.5)
        assert not by_quality.wants_rebuild(10**6, 1.49)
        assert by_quality.wants_rebuild(0, 1.51)

    def test_describe_round_trips(self):
        for text in ("never", "always", "writes:256", "quality:1.5"):
            assert parse_rebuild_policy(text).describe() == text

    def test_cost_model_scales(self):
        assert write_cycles(3) == 3 * write_cycles(1)
        assert refit_cycles(10) == 10 * refit_cycles(1)
        assert rebuild_cycles(4096) > rebuild_cycles(512) > 0
        assert refit_cycles(100) < rebuild_cycles(100)


# -- per-flavor mutators ------------------------------------------------------------
class TestMutators:
    @pytest.mark.parametrize("query_class", sorted(TINY))
    def test_writes_preserve_exactness(self, query_class):
        """Conservative maintenance decays quality, never correctness:
        after heavy mixed churn — before any refit — the live tree
        still answers every canonical query exactly like the golden
        oracle the mutator maintains."""
        index = tiny_index(query_class)
        mutator = make_mutator(query_class, index.workload)
        churn(mutator, 300, seed=1)
        wl = index.workload
        if query_class == "point":
            assert [wl.tree.search(q).found for q in wl.queries] == wl.golden
        elif query_class == "range":
            for w in wl.windows:
                assert tuple(sorted(wl.tree.range_query(w).ids)) == \
                    wl.golden(w)
        elif query_class == "radius":
            for q in wl.queries:
                assert tuple(sorted(wl.trace(q).hits)) == wl.golden(q)

    @pytest.mark.parametrize("query_class", sorted(TINY))
    @pytest.mark.parametrize("maintenance", ["refit", "rebuild"])
    def test_equivalence_with_fresh_build_oracle(self, query_class,
                                                 maintenance):
        """Tentpole acceptance: after churn + refit (and after a full
        rebuild) the mutated tree answers every canonical query exactly
        like a fresh bulk build over the same live set."""
        index = tiny_index(query_class)
        mutator = make_mutator(query_class, index.workload)
        churn(mutator, 200, seed=2)
        if maintenance == "refit":
            mutator.refit()
        else:
            mutator.rebuild()
        got = mutated_results_for_oracle(query_class, index.workload)
        expected = oracle_results(query_class, index.workload, mutator)
        assert got == expected

    @pytest.mark.parametrize("query_class", sorted(TINY))
    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_mutated_index_serves_exactly_per_platform(self, query_class,
                                                       platform):
        """Launch the full canonical stream on the mutated index on
        every platform; the backend verifies every result against the
        (mutator-maintained) golden oracle."""
        index = tiny_index(query_class)
        mutator = make_mutator(query_class, index.workload)
        churn(mutator, 120, seed=3)
        mutator.refit()
        refresh_workload_image(query_class, index.workload)
        index._lowered.clear()
        index.mutation_epoch = getattr(index, "mutation_epoch", 0) + 1
        backend = LaunchBackend(platform, max_verify=10**9)
        qids = list(range(index.n_canonical))
        launch = backend.launch(index, qids, now=0.0)
        assert not launch.failed
        assert len(launch.results) == len(qids)

    @pytest.mark.parametrize("query_class", sorted(TINY))
    def test_delete_everything_down_to_floor(self, query_class):
        """A delete-only storm degrades to inserts at the floor rather
        than emptying the tree; the index stays serviceable."""
        index = tiny_index(query_class)
        mutator = make_mutator(query_class, index.workload)
        rng = random.Random(0)
        ops = [mutator.apply("delete", rng)[0] for _ in range(2000)]
        assert mutator.live_size >= 1
        assert "insert" in ops, "floor should degrade deletes to inserts"
        mutator.refit()
        got = mutated_results_for_oracle(query_class, index.workload)
        assert got == oracle_results(query_class, index.workload, mutator)

    def test_rtree_delete_soak_keeps_invariants(self):
        """Satellite: R-Tree CondenseTree + reinsertion under a long
        interleaved soak — structural invariants and golden equality
        checked throughout."""
        index = tiny_index("range")
        wl = index.workload
        mutator = make_mutator("range", wl)
        rng = random.Random(11)
        for step in range(400):
            mutator.apply(("delete", "insert", "delete", "update")[step % 4],
                          rng)
            if step % 50 == 49:
                wl.tree.check_invariants()
                for w in wl.windows[:8]:
                    assert tuple(sorted(wl.tree.range_query(w).ids)) == \
                        wl.golden(w)
        assert len(wl.tree) == mutator.live_size
        assert len(wl.entries) == mutator.live_size

    def test_kdtree_churn_tracks_live_set(self):
        index = tiny_index("knn")
        wl = index.workload
        mutator = make_mutator("knn", wl)
        churn(mutator, 150, seed=4)
        assert wl.tree.n_live == mutator.live_size
        mutator.rebuild()
        assert sorted(wl.tree.live_point_ids()) == \
            sorted(mutator.pool.items())
        for q in wl.queries[:8]:
            ids = wl.tree.knn(q, wl.k).ids
            assert tuple(sorted(ids)) == tuple(sorted(
                wl.tree.brute_force_knn(q, wl.k)))

    @pytest.mark.parametrize("query_class", sorted(TINY))
    def test_quality_keys_complete_and_finite(self, query_class):
        index = tiny_index(query_class)
        mutator = make_mutator(query_class, index.workload)
        q = mutator.quality()
        assert set(q) == set(QUALITY_KEYS)
        for key, value in q.items():
            assert value == value and value >= 0, (key, value)
        assert q["decay"] > 0

    def test_quality_decays_under_churn_and_recovers_on_rebuild(self):
        index = tiny_index("range")
        mutator = make_mutator("range", index.workload)
        base = mutator.quality()["decay"]
        churn(mutator, 400, seed=5)
        decayed = mutator.quality()["decay"]
        assert decayed > base
        mutator.rebuild()
        rebuilt = mutator.quality()["decay"]
        assert rebuilt < decayed
        assert rebuilt == pytest.approx(base, rel=0.35)

    def test_deterministic_mutation(self):
        results = []
        for _ in range(2):
            index = tiny_index("point")
            mutator = make_mutator("point", index.workload)
            churn(mutator, 100, seed=6)
            results.append((sorted(index.workload.tree.nodes()[0].keys),
                            list(index.workload.golden)))
        assert results[0] == results[1]

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            make_mutator("cubes", object())


# -- MutableResidentIndex -----------------------------------------------------------
class TestMutableResidentIndex:
    def make(self, query_class="point", **kw):
        index = tiny_index(query_class)
        return index, MutableResidentIndex(index, **kw)

    def event(self, t, op="insert", seq=0, cls="point"):
        from repro.mutation.stream import WriteEvent
        return WriteEvent(t=t, query_class=cls, op=op, seq=seq,
                          measured=True)

    def test_apply_counts_and_charges(self):
        _, mut = self.make(refit_threshold=10**6)
        rng = random.Random(0)
        cycles = sum(mut.apply(self.event(i * 1e-4, seq=i), rng)
                     for i in range(10))
        assert mut.writes == 10 and cycles > 0
        assert sum(mut.writes_by_op.values()) == 10

    def test_refit_fires_at_threshold(self):
        _, mut = self.make(refit_threshold=8,
                           policy=RebuildPolicy(mode="never"))
        rng = random.Random(0)
        for i in range(24):
            mut.apply(self.event(i * 1e-4, seq=i), rng)
        assert mut.refits == 3 and mut.rebuilds == 0
        kinds = [e["kind"] for e in mut.maintenance_events]
        assert kinds == ["refit"] * 3

    def test_rebuild_scheduled_then_installed_with_epoch_swap(self):
        index, mut = self.make(
            refit_threshold=4,
            policy=RebuildPolicy(mode="writes", write_threshold=4))
        rng = random.Random(0)
        epoch_before = getattr(index, "mutation_epoch", 0)
        for i in range(4):
            mut.apply(self.event(i * 1e-4, seq=i), rng)
        assert mut._rebuild_ready_at is not None
        assert mut.rebuilds == 0, "old tree keeps serving until ready"
        # Interim writes are the log the swap must not lose.
        for i in range(4, 7):
            mut.apply(self.event(4e-4 + i * 1e-5, seq=i), rng)
        mut.ensure_ready(mut._rebuild_ready_at + 1.0)
        assert mut.rebuilds == 1 and mut.epoch == 1
        installed = [e for e in mut.maintenance_events
                     if e["kind"] == "rebuild_installed"]
        assert installed and installed[0]["log_replayed"] == 3.0
        assert index.mutation_epoch > epoch_before
        # Post-install the tree is equivalent to a fresh build.
        got = mutated_results_for_oracle("point", index.workload)
        assert got == oracle_results("point", index.workload, mut.mutator)

    def test_refresh_clears_derived_caches(self):
        index, mut = self.make(refit_threshold=10**6)
        wl = index.workload
        jobs_before = wl.jobs("tta")
        assert wl._jobs_cache
        index._lowered[("tta", 0)] = ([], True)
        rng = random.Random(0)
        mut.apply(self.event(0.0), rng)
        mut.ensure_ready(1e-3)
        assert not wl._jobs_cache or wl.jobs("tta") is not jobs_before
        assert not index._lowered
        assert wl.mutation_epoch >= 1

    def test_counters_shape(self):
        _, mut = self.make()
        counters = mut.counters()
        assert {"writes", "by_op", "refits", "rebuilds", "epoch",
                "live_items", "decay_ratio"} <= set(counters)

    def test_refit_threshold_validated(self):
        index = tiny_index("point")
        with pytest.raises(ConfigurationError):
            MutableResidentIndex(index, refit_threshold=0)


# -- staleness contracts ------------------------------------------------------------
class TestStalenessContracts:
    def test_build_cache_never_persists_mutated_workload(self, tmp_path):
        """Satellite: a mutated index must never poison the on-disk
        build cache; ``put_build`` refuses any nonzero epoch."""
        cache = ResultCache(tmp_path)
        params = dict(TINY["point"], seed=0)
        index = build_resident_index("point", params, cache=cache)
        key = build_key("btree", params)
        assert cache.get_build(key) is not None, "pristine build cached"
        mutator = make_mutator("point", index.workload)
        churn(mutator, 40, seed=0)
        refresh_workload_image("point", index.workload)
        assert index.workload.mutation_epoch >= 1
        assert cache.put_build(key, index.workload) is False
        # The cached pristine build is still the pristine one.
        cached = cache.get_build(key)
        assert getattr(cached, "mutation_epoch", 0) == 0
        assert len(cached.tree) == len(index.workload.tree) - \
            (mutator.live_size - len(cached.tree))

    def test_bvh_soa_refreshes_after_mutation(self):
        """Satellite regression: ``soa()`` must serve a new view after
        any mutation, not the stale arrays."""
        index = tiny_index("radius")
        bvh = index.workload.bvh
        stale = bvh.soa()
        mutator = make_mutator("radius", index.workload)
        rng = random.Random(0)
        mutator.apply("insert", rng)
        fresh = bvh.soa()
        assert fresh is not stale
        assert len(fresh.nodes) == len(bvh.nodes())
        assert bvh.soa() is fresh, "epoch-stable soa stays memoized"

    def test_backend_config_tracks_mutation_epoch(self):
        index = tiny_index("point")
        backend = LaunchBackend("tta")
        from repro.harness.runner import scaled_config_for

        assert backend.config_for(index) == scaled_config_for(
            index.workload.image.size_bytes)
        mutator = make_mutator("point", index.workload)
        churn(mutator, 30, seed=0)
        refresh_workload_image("point", index.workload)
        index.mutation_epoch = getattr(index, "mutation_epoch", 0) + 1
        # Derived from the re-placed image on every call: no memo that
        # could go stale.
        assert backend.config_for(index) == scaled_config_for(
            index.workload.image.size_bytes)


# -- loadtest integration -----------------------------------------------------------
class TestLoadtestMutation:
    PROFILE = LoadProfile(qps=600, duration_s=0.25, warmup_s=0.05,
                          mix={"point": 1.0}, seed=9)
    MUTATION = MutationConfig(
        write=WriteProfile(mix={"insert": 200.0, "delete": 100.0}, seed=9),
        policy=RebuildPolicy(mode="writes", write_threshold=48),
        refit_threshold=16)

    def run(self, mutation=None, seed=0):
        indexes = {"point": tiny_index("point", seed=seed)}
        return run_loadtest("tta", indexes, self.PROFILE,
                            mutation=mutation)

    def test_deterministic_report_fingerprint(self):
        first = self.run(mutation=self.MUTATION)
        second = self.run(mutation=self.MUTATION)
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_read_only_run_is_transparent(self):
        """Satellite acceptance: without a write stream the report is
        byte-identical to the pre-mutation serving stack — no mutation
        keys anywhere."""
        report = self.run(mutation=None)
        d = report.to_dict()
        assert "mutation" not in d
        assert not any(name.startswith("mutation.")
                       for name in report.metrics.names())

    def test_mutation_summary_shape_and_decay_recovery(self):
        report = self.run(mutation=self.MUTATION)
        m = report.to_dict()["mutation"]
        assert m["writes_applied"] > 0
        assert m["rebuild_policy"] == "writes:48"
        point = m["per_class"]["point"]
        assert point["writes"] > 0
        assert point["refits"] + point["rebuilds"] > 0
        assert point["rebuilds"] >= 1, "threshold 48 must trigger"
        kinds = [e["kind"] for e in point["maintenance"]]
        assert "rebuild_installed" in kinds
        # Post-rebuild the decayed ratio recovers toward 1.
        assert point["decay_ratio"] == pytest.approx(1.0, abs=0.2)
        curve = m["churn_curve"]
        assert len(curve) >= 4
        assert sum(b["writes"] for b in curve) == m["writes_applied"]
        assert any(b["served"] > 0 for b in curve)

    def test_writes_cost_cycles_on_the_serving_devices(self):
        quiet = self.run(mutation=None)
        churned = self.run(mutation=self.MUTATION)
        assert churned.sim_cycles > quiet.sim_cycles

    def test_mutation_metrics_registered(self):
        report = self.run(mutation=self.MUTATION)
        names = set(report.metrics.names())
        assert report.metrics.get("mutation.writes") > 0
        assert "mutation.point.sah_cost" in names
        assert "mutation.point.decay_ratio" in names

    def test_qps_sweep_legs_start_pristine(self):
        """With mutation, every (platform, qps) leg deep-copies the
        indexes: the same leg re-run alone gives identical results."""
        indexes = {"point": tiny_index("point")}
        sweep = run_qps_sweep(["tta"], [400.0, 800.0], indexes,
                              self.PROFILE, mutation=self.MUTATION)
        alone = run_qps_sweep(["tta"], [800.0],
                              {"point": tiny_index("point")},
                              self.PROFILE, mutation=self.MUTATION)
        row_swept = sweep["curves"]["tta"][1]
        row_alone = alone["curves"]["tta"][0]
        assert row_swept["mutation"] == row_alone["mutation"]
        assert row_swept["latency_ms"] == row_alone["latency_ms"]
        assert sweep["mutation"]["rebuild_policy"] == "writes:48"
        # The originals were never mutated.
        assert getattr(indexes["point"].workload, "mutation_epoch", 0) == 0

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_all_platforms_survive_mixed_traffic(self, platform):
        indexes = {"point": tiny_index("point")}
        report = run_loadtest(platform, indexes, self.PROFILE,
                              mutation=self.MUTATION)
        assert report.served > 0
        assert report.to_dict()["mutation"]["writes_applied"] > 0


# -- campaign churn axis / apply_churn ----------------------------------------------
class TestChurnAxis:
    def test_apply_churn_pre_decays_a_build(self):
        index = tiny_index("range")
        mutator = apply_churn(index.workload, "range",
                              "insert=2,delete=1@120", seed=3)
        assert index.workload.mutation_epoch == 1
        assert mutator.live_size == len(index.workload.tree)
        for w in index.workload.windows[:8]:
            assert tuple(sorted(index.workload.tree.range_query(w).ids)) \
                == index.workload.golden(w)

    @pytest.mark.parametrize("kind", sorted(CHURN_KINDS))
    def test_factories_accept_churn(self, kind):
        from repro.harness.runner import build_workload
        params = {
            "btree": dict(n_keys=256, n_queries=32),
            "rtree": dict(n_rects=256, n_queries=16),
            "knn": dict(n_points=256, n_queries=16, k=4),
            "rtnn": dict(n_points=256, n_queries=16),
        }[kind]
        wl = build_workload(kind, dict(params, seed=0,
                                       churn="insert=3,delete=2@64"))
        assert wl.mutation_epoch == 1

    def test_campaign_validates_churn_axis(self):
        from repro.campaign import CampaignSpec
        spec = CampaignSpec(
            name="churny",
            workloads=[{"kind": "btree",
                        "params": {"n_keys": 256, "n_queries": 32},
                        "churn": [None, "insert=2,delete=1@64"]}],
            platforms=["tta"])
        points = spec.expand()
        assert len(points) == 2
        churns = sorted(str(p.axes["params"]["churn"]) for p in points)
        assert churns == ["None", "insert=2,delete=1@64"]
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="bad",
                         workloads=[{"kind": "nbody", "churn": "insert=1@8"}],
                         platforms=["tta"])
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="bad",
                         workloads=[{"kind": "btree", "churn": "oops"}],
                         platforms=["tta"])

    def test_mutation_config_validation(self):
        with pytest.raises(ConfigurationError):
            WriteProfile(mix={})
        with pytest.raises(ConfigurationError):
            WriteProfile(mix={"zorp": 1.0})
        with pytest.raises(ConfigurationError):
            RebuildPolicy(mode="sometimes")

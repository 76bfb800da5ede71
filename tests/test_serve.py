"""Tests for the serving layer (``repro.serve``).

Covers the batcher's no-loss/no-duplication contract under size vs
timeout races, deterministic loadtest percentiles under seeded
arrivals, per-platform equivalence of the serve path with the one-shot
harness, guard-triggered degradation of a poisoned batch to the legacy
engine, and the exec build cache the resident indexes ride on.
"""

import copy
import json
import pickle
import random

import pytest

from repro.errors import ConfigurationError
from repro.exec import ResultCache, build_fingerprint, build_key
from repro.harness.runner import run_btree, run_knn, run_rtree, scaled_config_for
from repro.serve import (
    Batch,
    BatchLaunch,
    BatchPolicy,
    LaunchBackend,
    LoadProfile,
    MicroBatcher,
    QueryRequest,
    SERVE_PLATFORMS,
    ServiceClock,
    build_resident_index,
    generate_arrivals,
    parse_mix,
    percentile,
    run_loadtest,
    run_qps_sweep,
    stream_signature,
)

#: Tiny construction params so every test's index builds in
#: milliseconds; big enough that batches exercise real traversal.
TINY = {
    "point": dict(n_keys=512, n_queries=64),
    "range": dict(n_rects=512, n_queries=32),
    "knn": dict(n_points=512, n_queries=32, k=4),
    "radius": dict(n_points=512, n_queries=32),
}


@pytest.fixture(scope="module")
def point_index():
    return build_resident_index("point", TINY["point"])


# -- batcher ------------------------------------------------------------------------
class TestMicroBatcher:
    @staticmethod
    def request(seq, cls="point", t=0.0):
        return QueryRequest(seq, cls, qid=seq % 8, t_arrival=t)

    def test_closes_on_size(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=3, max_wait_s=1.0))
        assert batcher.offer(self.request(0, t=0.0)) is None
        assert batcher.offer(self.request(1, t=0.1)) is None
        batch = batcher.offer(self.request(2, t=0.2))
        assert batch is not None and batch.closed_by == "size"
        assert [q.seq for q in batch.queries] == [0, 1, 2]
        assert batch.t_open == 0.0 and batch.t_close == 0.2
        assert batcher.pending("point") == 0

    def test_closes_on_timeout(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_wait_s=0.5))
        batcher.offer(self.request(0, t=1.0))
        assert batcher.deadline("point") == 1.5
        generation = batcher.generation("point")
        batch = batcher.expire("point", 1.5, generation)
        assert batch is not None and batch.closed_by == "timeout"
        assert batch.size == 1

    def test_stale_deadline_is_noop(self):
        """A timer armed for a batch that already closed on size must
        not close the *next* batch early."""
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_wait_s=0.5))
        batcher.offer(self.request(0, t=0.0))
        stale = batcher.generation("point")
        assert batcher.offer(self.request(1, t=0.1)) is not None  # size
        batcher.offer(self.request(2, t=0.2))       # new open batch
        assert batcher.expire("point", 0.5, stale) is None
        assert batcher.pending("point") == 1

    def test_per_class_isolation(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_wait_s=1.0))
        batcher.offer(self.request(0, cls="point"))
        batcher.offer(self.request(1, cls="knn"))
        batch = batcher.offer(self.request(2, cls="point"))
        assert batch.query_class == "point"
        assert batcher.pending("knn") == 1

    def test_flush_drains_every_class(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=10, max_wait_s=1.0))
        batcher.offer(self.request(0, cls="point"))
        batcher.offer(self.request(1, cls="radius"))
        flushed = batcher.flush(5.0)
        assert sorted(b.query_class for b in flushed) == ["point", "radius"]
        assert all(b.closed_by == "flush" for b in flushed)
        assert batcher.pending() == 0

    def test_no_query_lost_or_duplicated_under_races(self):
        """Randomized size/timeout interleaving: every offered query
        lands in exactly one closed batch."""
        rng = random.Random(1234)
        policy = BatchPolicy(max_batch=4, max_wait_s=0.010)
        batcher = MicroBatcher(policy)
        classes = ("point", "range", "knn")
        armed = {}      # cls -> (deadline, generation)
        closed = []
        t = 0.0
        for seq in range(2000):
            t += rng.random() * 0.004
            # Fire every armed timer whose deadline passed — including
            # stale ones (the race under test).
            for cls in classes:
                if cls in armed and armed[cls][0] <= t:
                    deadline, generation = armed.pop(cls)
                    batch = batcher.expire(cls, deadline, generation)
                    if batch is not None:
                        closed.append(batch)
            cls = rng.choice(classes)
            before_open = batcher.generation(cls) is None
            request = QueryRequest(seq, cls, qid=seq % 8, t_arrival=t)
            batch = batcher.offer(request)
            if batch is not None:
                closed.append(batch)
            elif before_open:
                armed[cls] = (batcher.deadline(cls),
                              batcher.generation(cls))
        closed.extend(batcher.flush(t))
        seqs = [q.seq for b in closed for q in b.queries]
        assert len(seqs) == 2000
        assert len(set(seqs)) == 2000        # no duplicates
        assert set(seqs) == set(range(2000))  # no losses
        assert all(b.size <= policy.max_batch for b in closed)
        # Arrival order is preserved within each class.
        for batch in closed:
            batch_seqs = [q.seq for q in batch.queries]
            assert batch_seqs == sorted(batch_seqs)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_wait_s=-1.0)


# -- load generation ----------------------------------------------------------------
class TestLoadgen:
    def test_deterministic_schedule(self):
        profile = LoadProfile(qps=500, duration_s=0.5, warmup_s=0.1,
                              seed=7)
        first = generate_arrivals(profile)
        second = generate_arrivals(profile)
        assert first == second
        assert generate_arrivals(
            LoadProfile(qps=500, duration_s=0.5, warmup_s=0.1,
                        seed=8)) != first

    def test_warmup_tagging_and_horizon(self):
        profile = LoadProfile(qps=1000, duration_s=0.2, warmup_s=0.1,
                              seed=3)
        arrivals = generate_arrivals(profile)
        assert arrivals
        assert all(a.t < profile.total_s for a in arrivals)
        assert all(a.measured == (a.t >= 0.1) for a in arrivals)
        assert any(not a.measured for a in arrivals)
        assert any(a.measured for a in arrivals)

    def test_uniform_spacing(self):
        profile = LoadProfile(qps=100, duration_s=0.1, arrival="uniform",
                              mix={"point": 1.0}, seed=0)
        arrivals = generate_arrivals(profile)
        gaps = {round(b.t - a.t, 9)
                for a, b in zip(arrivals, arrivals[1:])}
        assert gaps == {0.01}

    def test_burst_mode_lands_back_to_back(self):
        profile = LoadProfile(qps=800, duration_s=0.5, arrival="burst",
                              burst_size=4, seed=2)
        arrivals = generate_arrivals(profile)
        assert len(arrivals) % 4 == 0
        times = [a.t for a in arrivals]
        assert times[0] == times[1] == times[2] == times[3]

    def test_qids_respect_capacities(self):
        profile = LoadProfile(qps=2000, duration_s=0.2,
                              mix={"point": 1.0}, seed=5)
        arrivals = generate_arrivals(profile, capacities={"point": 16})
        assert {a.query_class for a in arrivals} == {"point"}
        assert all(0 <= a.qid < 16 for a in arrivals)

    def test_mix_weights_shape_the_stream(self):
        profile = LoadProfile(qps=4000, duration_s=0.5,
                              mix={"point": 9.0, "knn": 1.0}, seed=11)
        arrivals = generate_arrivals(profile)
        share = sum(a.query_class == "point" for a in arrivals) \
            / len(arrivals)
        assert share > 0.8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(qps=0)
        with pytest.raises(ConfigurationError):
            LoadProfile(mix={"nope": 1.0})
        with pytest.raises(ConfigurationError):
            LoadProfile(arrival="adversarial")
        with pytest.raises(ConfigurationError):
            LoadProfile(mix={"point": 0.0})

    def test_parse_mix(self):
        assert parse_mix("point,knn") == {"point": 1.0, "knn": 1.0}
        assert parse_mix("point=4,range=1") == {"point": 4.0, "range": 1.0}
        with pytest.raises(ConfigurationError):
            parse_mix("point=heavy")
        with pytest.raises(ConfigurationError):
            parse_mix(",")


class TestLoadgenDeterminism:
    """Same seed => identical arrival stream, for every arrival process.

    The resilience fault matrix and the overload demo both lean on this:
    a chaos run is only diagnosable if replaying the seed replays the
    exact offered load.
    """

    ARRIVALS = ("poisson", "uniform", "burst")

    def _profile(self, arrival, seed):
        return LoadProfile(qps=900.0, duration_s=0.3, warmup_s=0.1,
                           arrival=arrival, burst_size=4,
                           mix={"point": 2.0, "knn": 1.0, "range": 1.0},
                           seed=seed)

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_same_seed_same_signature(self, arrival):
        first = generate_arrivals(self._profile(arrival, seed=13))
        second = generate_arrivals(self._profile(arrival, seed=13))
        assert stream_signature(first) == stream_signature(second)

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_different_seed_different_signature(self, arrival):
        first = generate_arrivals(self._profile(arrival, seed=13))
        second = generate_arrivals(self._profile(arrival, seed=14))
        assert stream_signature(first) != stream_signature(second)

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_warmup_tagging_is_part_of_the_signature(self, arrival):
        profile = self._profile(arrival, seed=13)
        arrivals = generate_arrivals(profile)
        signature = stream_signature(arrivals)
        # The signature carries (t, class, qid, measured) per arrival...
        assert all(len(entry) == 4 for entry in signature)
        # ...and the measured flag is exactly the warmup cut.
        assert all(measured == (t >= profile.warmup_s)
                   for t, _, _, measured in signature)
        assert any(not measured for *_, measured in signature)
        assert any(measured for *_, measured in signature)


# -- percentiles --------------------------------------------------------------------
class TestPercentile:
    def test_nearest_rank(self):
        samples = sorted(float(v) for v in range(1, 101))
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile([3.0], 99) == 3.0
        assert percentile([], 50) == 0.0


# -- the virtual-time loadtest ------------------------------------------------------
class _StubBackend:
    """Launch backend double: fixed cycles, no simulation."""

    def __init__(self, platform="tta", cycles=1365.0):
        self.platform = platform
        self.cycles = cycles
        self.launched = []     # list of qid tuples, in dispatch order
        self.launches = 0
        self.degraded = 0

    def launch(self, index, qids, now=0.0):
        self.launches += 1
        self.launched.append(tuple(qids))
        return BatchLaunch(self.platform, index.query_class, len(qids),
                           self.cycles, {i: True for i in range(len(qids))},
                           stats=None)


class TestLoadtest:
    PROFILE = LoadProfile(qps=2000, duration_s=0.1, warmup_s=0.02,
                          mix={"point": 1.0}, seed=9)

    def test_every_measured_arrival_is_served_once(self, point_index):
        backend = _StubBackend()
        report = run_loadtest("tta", {"point": point_index}, self.PROFILE,
                              policy=BatchPolicy(max_batch=8,
                                                 max_wait_s=1e-3),
                              backend=backend)
        arrivals = generate_arrivals(
            self.PROFILE, {"point": point_index.n_canonical})
        measured = sum(a.measured for a in arrivals)
        assert report.offered == measured
        assert report.served == measured
        assert report.rejected == 0
        launched = sum(len(qids) for qids in backend.launched)
        assert launched == len(arrivals)

    def test_latency_includes_batching_wait_and_kernel(self, point_index):
        """One query, never joined: latency = max_wait + launch cost."""
        clock = ServiceClock(core_mhz=1365.0, launch_overhead_s=1e-5)
        profile = LoadProfile(qps=50, duration_s=0.1, mix={"point": 1.0},
                              arrival="uniform", seed=0)
        backend = _StubBackend(cycles=13650.0)   # 10us at 1365 MHz
        report = run_loadtest("tta", {"point": point_index}, profile,
                              policy=BatchPolicy(max_batch=64,
                                                 max_wait_s=5e-3),
                              clock=clock, backend=backend)
        # 50 qps uniform = 20ms gaps > 5ms wait: every batch is size 1.
        assert report.mean_batch_size == 1.0
        expected_ms = (5e-3 + 1e-5 + 10e-6) * 1e3
        for latency in report.all_latencies_ms():
            assert latency == pytest.approx(expected_ms, rel=1e-9)

    def test_deterministic_report(self, point_index):
        first = run_loadtest("tta", {"point": point_index}, self.PROFILE,
                             backend=_StubBackend())
        second = run_loadtest("tta", {"point": point_index}, self.PROFILE,
                              backend=_StubBackend())
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_deterministic_with_real_backend(self, point_index):
        """End-to-end determinism: real simulated launches included."""
        profile = LoadProfile(qps=800, duration_s=0.05, mix={"point": 1.0},
                              seed=4)
        reports = [run_loadtest("tta", {"point": point_index}, profile)
                   for _ in range(2)]
        assert reports[0].to_dict() == reports[1].to_dict()
        assert reports[0].sim_cycles > 0

    def test_admission_control_rejects_over_capacity(self, point_index):
        profile = LoadProfile(qps=5000, duration_s=0.05,
                              mix={"point": 1.0}, seed=1)
        report = run_loadtest("tta", {"point": point_index}, profile,
                              policy=BatchPolicy(max_batch=4,
                                                 max_wait_s=1e-3),
                              max_pending=8,
                              backend=_StubBackend(cycles=1e7))
        assert report.rejected > 0
        arrivals = generate_arrivals(
            profile, {"point": point_index.n_canonical})
        assert report.served + report.rejected <= len(arrivals)

    def test_sharding_uses_all_devices(self, point_index):
        backend = _StubBackend()
        report = run_loadtest("tta", {"point": point_index}, self.PROFILE,
                              policy=BatchPolicy(max_batch=8,
                                                 max_wait_s=2e-3),
                              n_shards=4, backend=backend)
        assert report.served > 0
        sizes = {len(qids) for qids in backend.launched}
        assert max(sizes) <= 2   # 8-query batches over 4 shards

    def test_serve_trace_events_emitted(self, point_index):
        from repro import obs

        tracer = obs.Tracer(capacity=100_000)
        run_loadtest("tta", {"point": point_index}, self.PROFILE,
                     backend=_StubBackend(), tracer=tracer)
        names = {e[2] for e in tracer.events()}
        assert {"enqueue", "batch", "launch", "complete"} <= names
        assert {e[0] for e in tracer.events()} == {"serve"}
        # serve events survive the Chrome exporter
        doc = obs.chrome_trace(tracer)
        assert any(ev.get("cat") == "serve"
                   for ev in doc["traceEvents"])

    def test_profile_class_without_index_rejected(self, point_index):
        profile = LoadProfile(qps=100, duration_s=0.1,
                              mix={"point": 1.0, "knn": 1.0})
        with pytest.raises(ConfigurationError):
            run_loadtest("tta", {"point": point_index}, profile)

    def test_max_batch_over_capacity_rejected(self, point_index):
        with pytest.raises(ConfigurationError):
            run_loadtest("tta", {"point": point_index}, self.PROFILE,
                         policy=BatchPolicy(
                             max_batch=point_index.capacity + 1))

    def test_qps_sweep_shape(self, point_index):
        sweep = run_qps_sweep(
            ["tta"], [100.0, 400.0], {"point": point_index},
            LoadProfile(qps=100, duration_s=0.05, mix={"point": 1.0},
                        seed=2))
        assert list(sweep["curves"]) == ["tta"]
        rows = sweep["curves"]["tta"]
        assert [row["qps"] for row in rows] == [100.0, 400.0]
        for row in rows:
            assert {"p50_ms", "p95_ms", "p99_ms"} <= set(row["latency_ms"])
            assert row["achieved_qps"] > 0


# -- per-platform equivalence with the one-shot harness -----------------------------
class TestServeEquivalence:
    @pytest.mark.parametrize("platform", SERVE_PLATFORMS)
    def test_point_serve_path_matches_one_shot(self, platform, point_index):
        """Full-canonical-stream batch through the serve backend is
        byte-identical to the one-shot harness runner: same results,
        same simulated cycles."""
        backend = LaunchBackend(platform)
        launch = backend.launch(point_index,
                                list(range(point_index.n_canonical)))
        one_shot = run_btree(point_index.workload, platform=platform)
        wl = point_index.workload
        serve_results = [launch.results[i]
                         for i in range(point_index.n_canonical)]
        assert serve_results == list(wl.golden)
        assert launch.cycles == one_shot.stats.cycles
        assert launch.engine == "fast"

    @pytest.mark.parametrize("query_class,runner", [
        ("range", run_rtree), ("knn", run_knn)])
    def test_other_classes_match_one_shot_on_tta(self, query_class, runner):
        index = build_resident_index(query_class, TINY[query_class])
        launch = LaunchBackend("tta").launch(
            index, list(range(index.n_canonical)))
        one_shot = runner(index.workload, platform="tta")
        assert launch.cycles == one_shot.stats.cycles

    def test_subset_batches_return_golden_results(self, point_index):
        """Arbitrary batch subsets (the serving case) stay correct —
        including repeat qids across batches (memoized lowering)."""
        backend = LaunchBackend("ttaplus")
        wl = point_index.workload
        for qids in ([5, 3, 60], [3, 5, 9, 11], [5, 3, 60]):
            launch = backend.launch(point_index, qids)
            for slot, qid in enumerate(qids):
                assert launch.results[slot] == wl.golden[qid]

    def test_backend_rejects_wrong_platform(self, point_index):
        with pytest.raises(ConfigurationError):
            LaunchBackend("rta").launch(point_index, [0, 1])

    def test_backend_config_matches_runner_policy(self, point_index):
        backend = LaunchBackend("tta")
        config = backend.config_for(point_index)
        expected = scaled_config_for(point_index.workload.image.size_bytes)
        assert config.l2_size == expected.l2_size
        assert config.n_sms == expected.n_sms
        # A churned deep copy served by the same backend gets the
        # geometry of its own re-placed image, whatever its id or
        # mutation epoch.
        from repro.mutation import MutableResidentIndex
        from repro.mutation.stream import WriteEvent

        churned = copy.deepcopy(point_index)
        mutable = MutableResidentIndex(churned, refit_threshold=10**6)
        rng = random.Random(0)
        for seq in range(200):
            mutable.apply(WriteEvent(seq * 1e-5, "point", "insert", seq,
                                     True), rng)
        mutable.ensure_ready(1.0)
        size = churned.workload.image.size_bytes
        assert size > point_index.workload.image.size_bytes
        assert backend.config_for(churned) == scaled_config_for(size)
        launch = backend.launch(churned, [0, 1, 2])
        assert not launch.failed
        assert backend.config_for(point_index) == expected


# -- guard aborts fail the batch ----------------------------------------------------
class TestGuardDegradation:
    @pytest.fixture(autouse=True)
    def _poison(self, monkeypatch):
        # The stall fault only arms on the fast engine; pin it so the
        # abort also happens under REPRO_SIM_CORE=legacy.
        monkeypatch.setenv("REPRO_SIM_CORE", "fast")
        monkeypatch.setenv("REPRO_FAULTS", "stall:query=3")
        monkeypatch.setenv("REPRO_GUARD_STALL_EVENTS", "10000")
        monkeypatch.setenv("REPRO_GUARD_CHECK_EVENTS", "2000")

    def test_poisoned_batch_fails_with_guard_reason(self, point_index):
        from repro.guard import Guard, GuardConfig

        backend = LaunchBackend(
            "tta", guard=Guard(GuardConfig(mode="on")))
        # Slot 3 of any >=4-query batch trips the injected stall.
        launch = backend.launch(point_index, [10, 11, 12, 13, 14])
        assert launch.failed and launch.results == {}
        assert launch.notes["failed_reason"] == "guard"
        assert "SimulationStallError" in launch.error
        assert backend.failed_batches == 1
        assert backend.failed_reasons == {"guard": 1}
        # A model fault, not a backend fault: the breaker stays closed.
        assert backend.breaker.failures == 0

    def test_small_batches_stay_on_fast_engine(self, point_index):
        from repro.guard import Guard, GuardConfig

        backend = LaunchBackend(
            "tta", guard=Guard(GuardConfig(mode="on")))
        launch = backend.launch(point_index, [10, 11, 12])
        assert launch.engine == "fast"
        assert backend.failed_batches == 0

    def test_loadtest_counts_degraded_batches(self, point_index):
        from repro.guard import Guard, GuardConfig

        profile = LoadProfile(qps=400, duration_s=0.05,
                              mix={"point": 1.0}, seed=6)
        report = run_loadtest(
            "tta", {"point": point_index}, profile,
            policy=BatchPolicy(max_batch=8, max_wait_s=20e-3),
            guard=Guard(GuardConfig(mode="on")))
        assert report.failed > 0
        assert report.degraded_batches > 0
        assert report.degraded_reasons == {"guard": report.degraded_batches}
        assert report.metrics.get("serve.degraded_batches") == \
            report.degraded_batches
        assert report.offered == report.served + report.failed + report.shed


# -- the exec build cache -----------------------------------------------------------
class TestBuildCache:
    def test_round_trip_and_reuse(self, tmp_path):
        cache = ResultCache(tmp_path)
        built = build_resident_index("point", TINY["point"], cache=cache)
        assert not built.from_cache
        assert cache.stats()["builds"] == 1
        reloaded = build_resident_index("point", TINY["point"], cache=cache)
        assert reloaded.from_cache
        assert reloaded.workload.golden == built.workload.golden
        # The reloaded build serves identical results.
        launch = LaunchBackend("tta").launch(reloaded, [0, 1, 2, 3])
        for slot in range(4):
            assert launch.results[slot] == built.workload.golden[slot]

    def test_deep_tree_builds_survive_pickling(self, tmp_path):
        """A B-Tree big enough to blow the default recursion limit
        still round-trips (the serve presets are all deeper)."""
        cache = ResultCache(tmp_path)
        params = dict(n_keys=16384, n_queries=32)
        built = build_resident_index("point", params, cache=cache)
        assert cache.stats()["builds"] == 1
        assert build_resident_index("point", params,
                                    cache=cache).from_cache

    def test_key_excludes_platform_and_config(self):
        """Build keys fold construction params + dataset fingerprint
        only — no platform, no GPU config, no RunSpec."""
        key = build_key("btree", {"n_keys": 512, "n_queries": 64})
        assert key == build_key("btree", {"n_queries": 64, "n_keys": 512})
        assert key != build_key("btree", {"n_keys": 1024, "n_queries": 64})
        assert key != build_key("rtree", {"n_keys": 512, "n_queries": 64})
        assert len(key) == 64
        assert build_fingerprint() in json.dumps(
            {"build": build_fingerprint()})  # fingerprint is stable

    def test_corrupt_build_quarantined_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = build_key("btree", dict(TINY["point"]))
        build_resident_index("point", TINY["point"], cache=cache)
        pkl, _ = cache._build_paths(key)
        pkl.write_bytes(b"garbage")
        assert cache.get_build(key) is None
        assert (tmp_path / "corrupt" / pkl.name).exists()
        assert cache.stats()["builds"] == 0

    def test_unpicklable_build_is_soft_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put_build("ab" * 32, lambda: None) is False
        assert cache.stats()["builds"] == 0

    def test_clear_removes_builds(self, tmp_path):
        cache = ResultCache(tmp_path)
        build_resident_index("point", TINY["point"], cache=cache)
        assert cache.clear() == 1
        assert cache.stats()["builds"] == 0


# -- asyncio service ----------------------------------------------------------------
class TestServeService:
    def test_queries_batch_and_match_golden(self, point_index):
        import asyncio

        from repro.serve import ServeService

        async def main():
            service = ServeService(
                {"point": point_index}, platform="tta",
                policy=BatchPolicy(max_batch=8, max_wait_s=0.02))
            async with service:
                responses = await asyncio.gather(
                    *[service.query("point", qid=i) for i in range(12)])
            return service, responses

        service, responses = asyncio.run(main())
        wl = point_index.workload
        assert all(r.result == wl.golden[r.qid] for r in responses)
        assert all(r.engine == "fast" for r in responses)
        assert max(r.batch_size for r in responses) > 1
        assert service.stats()["queries_served"] == 12

    def test_bad_requests_rejected(self, point_index):
        import asyncio

        from repro.serve import ServeService

        async def main():
            service = ServeService({"point": point_index}, platform="tta")
            with pytest.raises(ConfigurationError):
                await service.query("point", qid=0)   # not started
            async with service:
                with pytest.raises(ConfigurationError):
                    await service.query("knn", qid=0)
                with pytest.raises(ConfigurationError):
                    await service.query("point")
                with pytest.raises(ConfigurationError):
                    await service.query("point", qid=10**6)

        asyncio.run(main())


# -- obs TimeSeries retention bound -------------------------------------------------
class TestTimeSeriesBound:
    def test_eviction_beyond_max_buckets(self):
        from repro.obs import TimeSeries

        series = TimeSeries(bucket=1.0, max_buckets=4)
        for t in range(10):
            series.add(float(t), 1.0)
        assert len(series.values) == 4
        assert series.dropped_buckets == 6
        assert min(series.values) == 6     # oldest evicted first
        assert series.as_dict()["dropped_buckets"] == 6

    def test_unbounded_when_disabled(self):
        from repro.obs import TimeSeries

        series = TimeSeries(bucket=1.0, max_buckets=None)
        for t in range(100):
            series.add(float(t), 1.0)
        assert len(series.values) == 100

    def test_old_pickles_gain_defaults(self):
        from repro.obs import DEFAULT_MAX_BUCKETS, TimeSeries

        series = pickle.loads(pickle.dumps(TimeSeries(bucket=2.0)))
        assert series.max_buckets == DEFAULT_MAX_BUCKETS
        # A pre-bound pickle payload (no max_buckets slot) restores too.
        series.__setstate__((None, {"bucket": 8.0, "values": {1: 3.0}}))
        assert series.bucket == 8.0
        assert series.max_buckets == DEFAULT_MAX_BUCKETS
        assert series.dropped_buckets == 0

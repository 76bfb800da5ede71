"""Tests for the serving layer (``repro.serve``).

Covers the batcher's no-loss/no-duplication contract under size vs
timeout races, deterministic loadtest percentiles under seeded
arrivals, per-platform equivalence of the serve path with the one-shot
harness, guard-triggered failure of a poisoned batch, the exec build
cache the resident indexes ride on, and ``repro serve``'s replay of
JSON-lines queries through the loadtest's event loop.
"""

import copy
import json
import pickle
import random

import pytest

from repro.errors import ConfigurationError
from repro.guard import Guard, GuardConfig, ServeFaults
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
    SERVE_SCALES,
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
class _StubBackend(LaunchBackend):
    """Launch backend double: fixed cycles, no simulation, no faults."""

    def __init__(self, platform="tta", cycles=1365.0):
        super().__init__(platform, faults=ServeFaults(None))
        self.cycles = cycles
        self.launched = []     # list of qid tuples, in dispatch order

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
    #: Tight watchdog thresholds: the injected stall aborts within ~10k
    #: host events instead of the 2M default.
    GUARD = GuardConfig(mode="on", stall_events=10_000, check_events=2_000)

    @pytest.fixture(autouse=True)
    def _poison(self, monkeypatch):
        # The stall fault only arms on the fast engine; pin it so the
        # abort also happens under REPRO_SIM_CORE=legacy.
        monkeypatch.setenv("REPRO_SIM_CORE", "fast")
        monkeypatch.setenv("REPRO_FAULTS", "stall:query=3")

    def test_poisoned_batch_fails_with_guard_reason(self, point_index):
        backend = LaunchBackend("tta", guard=Guard(self.GUARD))
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
        backend = LaunchBackend("tta", guard=Guard(self.GUARD))
        launch = backend.launch(point_index, [10, 11, 12])
        assert launch.engine == "fast"
        assert backend.failed_batches == 0

    def test_loadtest_counts_degraded_batches(self, point_index):
        profile = LoadProfile(qps=400, duration_s=0.05,
                              mix={"point": 1.0}, seed=6)
        report = run_loadtest(
            "tta", {"point": point_index}, profile,
            policy=BatchPolicy(max_batch=8, max_wait_s=20e-3),
            guard=Guard(self.GUARD))
        assert report.failed > 0
        assert report.degraded_batches > 0
        assert report.degraded_reasons == {"guard": report.degraded_batches}
        assert report.metrics.get("serve.degraded_batches") == \
            report.degraded_batches
        assert report.offered == report.served + report.failed + report.shed


# -- repro serve: JSON-lines queries through the loadtest's loop -------------------
class TestServeCommand:
    """``repro serve`` end to end.  CI also runs these under each
    ``$REPRO_FAULTS`` injector with ``REPRO_RESILIENCE=degrade``, so they
    assert accounting and determinism, not fault-free outcomes."""

    @pytest.fixture(autouse=True)
    def _build_cache(self, tmp_path_factory, monkeypatch):
        cache = tmp_path_factory.getbasetemp() / "serve-build-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))

    @staticmethod
    def _serve(tmp_path, lines, *flags, name="out"):
        from repro.__main__ import main

        queries = tmp_path / f"{name}.jsonl"
        queries.write_text("".join(json.dumps(line) + "\n"
                                   for line in lines))
        out = tmp_path / f"{name}.out.jsonl"
        code = main(["serve", "--platform", "tta", "--input", str(queries),
                     "--out", str(out), *flags])
        records = [json.loads(line) for line in out.read_text().splitlines()] \
            if out.exists() else None
        return code, records, out

    @staticmethod
    def _point_index():
        return build_resident_index("point", SERVE_SCALES["smoke"]["point"])

    @staticmethod
    def _check_accounting(code, records, n):
        served = [r for r in records if "result" in r]
        refused = [r for r in records if "error" in r]
        assert len(records) == len(served) + len(refused) == n
        assert all(r["error"].split(":")[0] in ("shed", "failed")
                   for r in refused)
        assert code == (1 if refused else 0)
        return served, refused

    def test_batches_and_matches_golden(self, tmp_path):
        lines = [{"class": "point", "qid": i} for i in range(40)]
        code, records, _ = self._serve(tmp_path, lines, "--mix", "point",
                                       "--max-batch", "8")
        served, _ = self._check_accounting(code, records, 40)
        golden = self._point_index().workload.golden
        assert [r["qid"] for r in records] == list(range(40))
        assert all(r["result"] == golden[r["qid"]] for r in served)
        assert all(r["engine"] == "fast" for r in served)
        assert max(r["batch_size"] for r in served) == 8

    def test_raw_payloads_for_present_and_absent_keys(self, tmp_path):
        index = self._point_index()
        golden = index.workload.golden
        present = index.payload(golden.index(True))
        absent = index.payload(golden.index(False))
        lines = [{"class": "point", "payload": present},
                 {"class": "point", "qid": 3},
                 {"class": "point", "payload": absent}]
        code, records, _ = self._serve(tmp_path, lines, "--mix", "point")
        served, _ = self._check_accounting(code, records, 3)
        expected = {0: True, 1: golden[3], 2: False}
        for slot, record in enumerate(records):
            assert record["qid"] == lines[slot].get("qid")
            if "result" in record:
                assert record["result"] is expected[slot]
                assert record["batch_size"] == 3

    @pytest.mark.parametrize("query_class", ["range", "knn", "radius"])
    def test_list_payloads_answer_like_their_qid(self, tmp_path,
                                                 query_class):
        """A JSON list is the class's native query: 3 numbers a point,
        6 (lo xyz, hi xyz) a box."""
        index = build_resident_index(query_class,
                                     SERVE_SCALES["smoke"][query_class])
        lines = []
        for qid in (5, 17):
            query = index.payload(qid)
            corners = (query.lo, query.hi) if query_class == "range" \
                else (query,)
            values = [c for v in corners for c in (v.x, v.y, v.z)]
            lines += [{"class": query_class, "qid": qid},
                      {"class": query_class, "payload": values}]
        code, records, _ = self._serve(tmp_path, lines,
                                       "--mix", query_class)
        self._check_accounting(code, records, 4)
        for by_qid, by_list in (records[0:2], records[2:4]):
            if "result" in by_qid and "result" in by_list:
                assert by_list["result"] == by_qid["result"]

    def test_list_of_the_wrong_shape_rejected_up_front(self, tmp_path,
                                                       capsys):
        code, records, _ = self._serve(
            tmp_path, [{"class": "range", "payload": [1.0, 2.0, 3.0]}],
            "--mix", "range")
        assert code == 2 and records is None
        assert "expected AABB" in capsys.readouterr().err

    @pytest.mark.parametrize("line, fragment", [
        ({"class": "knn", "qid": 0}, "no resident index"),
        ({"class": "point", "qid": 10**6}, "out of range"),
        ({"class": "point", "qid": "7"}, "out of range"),
        ({"class": "point"}, "needs a qid or a payload"),
        ({"class": "point", "payload": "7"}, "expected int"),
        ({"class": "point", "payload": [1, 2, 3]}, "expected int"),
        ({"qid": 3}, "'{\"qid\": 3}'"),
    ], ids=["unknown-class", "qid-out-of-range", "qid-not-int",
            "no-qid-or-payload", "payload-wrong-type", "payload-list",
            "no-class"])
    def test_bad_query_rejected_up_front(self, tmp_path, capsys, line,
                                         fragment):
        code, records, out = self._serve(
            tmp_path, [{"class": "point", "qid": 0}, line], "--mix", "point")
        assert code == 2 and records is None and not out.exists()
        err = capsys.readouterr().err
        assert "[serve] bad query on line 2: " in err
        assert fragment in err

    def test_shed_replay_is_deterministic_and_accounted(self, tmp_path):
        # 300 range queries at t=0 against a queue limit of 128 (range
        # is a priority-2 class: half of the 256 watermark).
        lines = [{"class": "range", "qid": i % 256} for i in range(300)]
        runs = [self._serve(tmp_path, lines, "--mix", "range",
                            "--resilience", "shed", name=f"run{i}")
                for i in range(2)]
        (code, records, first), (code2, _, second) = runs
        assert first.read_bytes() == second.read_bytes() and code == code2
        _, refused = self._check_accounting(code, records, 300)
        queue_sheds = sum(r["error"] == "shed: queue" for r in refused)
        assert queue_sheds >= 300 - 128


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

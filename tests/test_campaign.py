"""Tests for the campaign layer (repro.campaign).

Covers the acceptance properties of the subsystem:

* factorial expansion is deterministic, constraint-filtered, and
  rep-resampled (distinct seeds, distinct cache keys);
* the lease protocol claims exactly once, steals only expired (or
  provably dead local) leases, and stealing is race-safe;
* a campaign drains to a manifest whose result fingerprint is invariant
  under worker count, interruption, and re-execution in a fresh cache;
* a re-run executes zero simulations, and a warm-cache campaign in a
  fresh directory resolves every point as a cache hit.
"""

import json
import os
import time

import pytest

import repro.campaign as campaign
from repro.campaign import (
    CampaignSpec,
    CampaignWorker,
    LeaseBoard,
    campaign_dir_for,
    run_campaign,
    run_worker,
    worker_order,
)
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache


def tiny_table(name="t", n_keys=(256,), platforms=("gpu",), reps=1,
               **extra):
    doc = {
        "name": name,
        "workloads": [{"kind": "btree",
                       "params": {"n_keys": list(n_keys),
                                  "n_queries": 64}}],
        "platforms": list(platforms),
        "reps": reps,
    }
    doc.update(extra)
    return CampaignSpec.from_dict(doc)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


# -- expansion ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_expansion_is_full_cross_product(self):
        spec = tiny_table(n_keys=(256, 512), platforms=("gpu", "tta"),
                          reps=3)
        points = spec.expand()
        assert len(points) == 2 * 2 * 3
        assert len({p.key for p in points}) == len(points)

    def test_expansion_is_deterministic(self):
        spec = tiny_table(n_keys=(256, 512), platforms=("gpu", "tta"))
        first = [p.key for p in spec.expand()]
        second = [p.key for p in spec.expand()]
        assert first == second

    def test_invalid_platform_for_kind_is_dropped(self):
        # wknd cannot run on gpu; the btree cells keep gpu, the single
        # shared platform list is filtered per-kind.
        spec = CampaignSpec.from_dict({
            "name": "mix",
            "workloads": [
                {"kind": "btree", "params": {"n_keys": 256,
                                             "n_queries": 64}},
                {"kind": "wknd", "params": {}},
            ],
            "platforms": ["gpu", "ttaplus"],
        })
        points = spec.expand()
        by_kind = {}
        for p in points:
            by_kind.setdefault(p.axes["kind"], set()).add(
                p.axes["platform"])
        assert by_kind["btree"] == {"gpu", "ttaplus"}
        assert by_kind["wknd"] == {"ttaplus"}

    def test_platform_valid_for_no_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_table(platforms=("rta",))  # btree never runs on rta

    def test_reps_resample_the_dataset(self):
        spec = tiny_table(reps=3)
        seeds = sorted(p.axes["params"]["seed"] for p in spec.expand())
        assert seeds == [0, 1, 2]
        # base_seed shifts every rep uniformly.
        shifted = tiny_table(reps=3, base_seed=10)
        assert sorted(p.axes["params"]["seed"]
                      for p in shifted.expand()) == [10, 11, 12]

    def test_exclude_removes_matching_cells(self):
        spec = tiny_table(n_keys=(256, 512), platforms=("gpu", "tta"),
                          exclude=[{"platform": "tta",
                                    "params": {"n_keys": 512}}])
        points = spec.expand()
        assert len(points) == 3
        assert not any(p.axes["platform"] == "tta"
                       and p.axes["params"]["n_keys"] == 512
                       for p in points)

    def test_all_cells_excluded_is_an_error(self):
        with pytest.raises(ConfigurationError, match="zero points"):
            tiny_table(exclude=[{"kind": "btree"}]).expand()

    def test_campaign_id_tracks_table_content(self):
        a, b = tiny_table(), tiny_table(reps=2)
        assert a.campaign_id != b.campaign_id
        assert a.campaign_id == tiny_table().campaign_id
        assert a.slug.startswith("t-")

    def test_round_trips_through_file(self, tmp_path):
        spec = tiny_table(n_keys=(256, 512), reps=2)
        path = spec.write(tmp_path / "table.json")
        again = CampaignSpec.from_file(path)
        assert again.canonical() == spec.canonical()
        assert [p.key for p in again.expand()] == \
            [p.key for p in spec.expand()]

    def test_bad_documents_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="required field"):
            CampaignSpec.from_dict({"name": "x"})
        with pytest.raises(ConfigurationError, match="kind"):
            tiny_table().from_dict({
                "name": "x",
                "workloads": [{"kind": "nope"}],
                "platforms": ["gpu"]})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            CampaignSpec.from_file(bad)

    def test_duplicate_cells_rejected(self):
        # Two identical workload entries expand to the same RunSpec.
        with pytest.raises(ConfigurationError, match="same RunSpec"):
            CampaignSpec.from_dict({
                "name": "dup",
                "workloads": [
                    {"kind": "btree", "params": {"n_keys": 256,
                                                 "n_queries": 64}},
                    {"kind": "btree", "params": {"n_keys": 256,
                                                 "n_queries": 64}},
                ],
                "platforms": ["gpu"],
            }).expand()

    def test_config_axis_labels_points(self):
        spec = tiny_table(configs=[None, {"label": "big",
                                          "policy": "scaled",
                                          "overrides": {"n_sms": 8}}])
        labels = {p.axes["config"] for p in spec.expand()}
        assert labels == {"default", "big"}
        assert any("#r0" in p.label for p in spec.expand())

    def test_worker_order_is_a_permutation_and_differs(self):
        points = tiny_table(n_keys=(256, 512, 1024),
                            platforms=("gpu", "tta"), reps=2).expand()
        orders = {wid: [p.key for p in worker_order(points, wid)]
                  for wid in ("w0", "w1", "w2")}
        for order in orders.values():
            assert sorted(order) == sorted(p.key for p in points)
        assert len({tuple(o) for o in orders.values()}) > 1


# -- leases -------------------------------------------------------------------------
class TestLeaseBoard:
    def test_claim_is_exclusive(self, tmp_path):
        a = LeaseBoard(tmp_path, "a")
        b = LeaseBoard(tmp_path, "b")
        assert a.claim("k")
        assert not b.claim("k")
        assert b.holder("k")["worker"] == "a"
        a.release("k")
        assert b.claim("k")

    def test_live_lease_cannot_be_stolen(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", ttl_s=300.0)
        b = LeaseBoard(tmp_path, "b", ttl_s=300.0)
        assert a.claim("k")
        assert not b.steal("k")
        assert not b.acquire("k")
        assert b.holder("k")["worker"] == "a"

    def test_expired_lease_is_stolen(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", ttl_s=0.01)
        b = LeaseBoard(tmp_path, "b", ttl_s=0.01)
        assert a.claim("k")
        stale = a._path("k")
        time.sleep(0.05)
        os.utime(stale, (time.time() - 10, time.time() - 10))
        assert b.acquire("k")
        assert b.stolen == 1
        assert b.holder("k")["worker"] == "b"

    def test_dead_local_pid_is_stolen_immediately(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", ttl_s=300.0)
        assert a.claim("k")
        # Rewrite the lease as if a long-gone local process held it;
        # the TTL has not expired but the owner provably has.
        lease = a.holder("k")
        lease["pid"] = 2 ** 22 + 12345  # beyond default pid_max
        a._path("k").write_text(json.dumps(lease))
        b = LeaseBoard(tmp_path, "b", ttl_s=300.0)
        assert b.steal("k")

    def test_steal_race_has_one_winner(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", ttl_s=0.0)
        assert a.claim("k")
        os.utime(a._path("k"), (time.time() - 10, time.time() - 10))
        thieves = [LeaseBoard(tmp_path, f"t{i}", ttl_s=0.0)
                   for i in range(4)]
        # Sequential here (true concurrency is exercised by the
        # multi-worker campaign tests); the invariant is that after
        # any steal sequence exactly one nonce survives.
        wins = [t.steal("k") for t in thieves]
        assert wins.count(True) >= 1
        owner = thieves[0].holder("k")["worker"]
        assert owner in {f"t{i}" for i in range(4)}

    def test_sweep_counts(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", ttl_s=300.0)
        a.claim("live")
        a.claim("old")
        lease = a.holder("old")
        lease["acquired"] = time.time() - 999
        a._path("old").write_text(json.dumps(lease))
        os.utime(a._path("old"), (time.time() - 999, time.time() - 999))
        assert a.sweep() == {"live": 1, "expired": 1}


# -- the drain loop -----------------------------------------------------------------
class TestCampaignRuns:
    def test_serial_campaign_drains_and_manifests(self, cache):
        spec = tiny_table(n_keys=(256, 512), reps=2)
        manifest = run_campaign(spec, workers=1, cache=cache, quiet=True)
        assert manifest["totals"] == {
            "points": 4, "executed": 4, "cached": 0, "failed": 0,
            "stolen_leases": 0, "unresolved": 0}
        assert manifest["invocation"]["executed"] == 4
        assert len(manifest["points"]) == 4
        for record in manifest["points"]:
            assert record["status"] == "executed"
            assert record["error"] is None
            assert record["wall_s"] >= 0.0
            assert record["peak_rss_kb"] > 0.0
            assert not record["cache_hit"]
        assert manifest["metrics"]["scalars"]["campaign.points"] == 4
        assert "campaign.point_wall_s" in manifest["metrics"]["histograms"]
        directory = campaign_dir_for(spec, cache)
        on_disk = json.loads((directory / "manifest.json").read_text())
        assert on_disk["result_fingerprint"] == \
            manifest["result_fingerprint"]

    def test_rerun_executes_nothing(self, cache):
        spec = tiny_table(n_keys=(256, 512))
        first = run_campaign(spec, workers=1, cache=cache, quiet=True)
        again = run_campaign(spec, workers=1, cache=cache, quiet=True)
        assert again["invocation"]["executed"] == 0
        assert again["invocation"]["skipped"] == 2
        assert again["result_fingerprint"] == first["result_fingerprint"]

    def test_warm_cache_fresh_dir_is_all_hits(self, cache, tmp_path):
        spec = tiny_table(n_keys=(256, 512))
        first = run_campaign(spec, workers=1, cache=cache, quiet=True)
        manifest = run_campaign(spec, workers=1, cache=cache, quiet=True,
                                directory=tmp_path / "fresh")
        assert manifest["totals"]["cached"] == 2
        assert manifest["invocation"]["executed"] == 0
        assert manifest["result_fingerprint"] == \
            first["result_fingerprint"]

    def test_resume_from_partial_campaign(self, cache, tmp_path):
        """Kill a campaign mid-flight; the re-run executes only the
        missing points and the final manifest matches an uninterrupted
        run's fingerprint."""
        spec = tiny_table(n_keys=(256, 512), reps=2)  # 4 points

        # "Crash" after two points: a worker with max_points=2 stops
        # early exactly as a killed process would — records for done
        # points, nothing for the rest.
        directory = campaign.init_campaign(spec, cache=cache)
        partial = run_worker(directory, worker_id="victim", cache=cache,
                             max_points=2, quiet=True)
        assert partial.partial and partial.resolved == 2

        resumed = run_campaign(spec, workers=1, cache=cache, quiet=True)
        assert resumed["invocation"]["executed"] == 2  # only the rest
        assert resumed["totals"]["unresolved"] == 0

        # Uninterrupted control run: fresh cache, fresh directory.
        control_cache = ResultCache(tmp_path / "control")
        control = run_campaign(spec, workers=1, cache=control_cache,
                               quiet=True)
        assert control["result_fingerprint"] == \
            resumed["result_fingerprint"]

    def test_crashed_workers_lease_is_stolen(self, cache):
        spec = tiny_table(n_keys=(256,))
        directory = campaign.init_campaign(spec, cache=cache)
        point = spec.expand()[0]
        # A dead process left its lease behind (lease without record).
        dead = LeaseBoard(directory / "leases", "dead",
                          ttl_s=spec.lease_ttl_s)
        assert dead.claim(point.key)
        lease = dead.holder(point.key)
        lease["pid"] = 2 ** 22 + 54321
        dead._path(point.key).write_text(json.dumps(lease))

        report = run_worker(directory, worker_id="rescuer", cache=cache,
                            quiet=True)
        assert report.executed == 1
        assert report.stolen == 1
        manifest = campaign.finalize(directory, cache=cache)
        assert manifest["totals"]["stolen_leases"] == 1
        assert manifest["totals"]["unresolved"] == 0

    def test_multi_worker_matches_serial_fingerprint(self, cache,
                                                     tmp_path):
        spec = tiny_table(n_keys=(256, 512), platforms=("gpu", "tta"),
                          reps=2)  # 8 points
        parallel = run_campaign(spec, workers=2, cache=cache, quiet=True)
        assert parallel["totals"]["unresolved"] == 0
        assert parallel["totals"]["failed"] == 0

        serial_cache = ResultCache(tmp_path / "serial")
        serial = run_campaign(spec, workers=1, cache=serial_cache,
                              quiet=True)
        assert parallel["result_fingerprint"] == \
            serial["result_fingerprint"]

    def test_reopening_with_different_table_rejected(self, cache,
                                                     tmp_path):
        where = tmp_path / "campdir"
        campaign.init_campaign(tiny_table(), directory=where, cache=cache)
        with pytest.raises(ConfigurationError, match="different campaign"):
            campaign.init_campaign(tiny_table(reps=2), directory=where,
                                   cache=cache)

    def test_status_probe(self, cache):
        spec = tiny_table(n_keys=(256, 512))
        directory = campaign.init_campaign(spec, cache=cache)
        before = campaign.status(directory)
        assert before["points"] == 2 and before["resolved"] == 0
        run_campaign(spec, workers=1, cache=cache, quiet=True)
        after = campaign.status(directory)
        assert after["resolved"] == 2 and after["unresolved"] == 0
        assert after["manifest_written"]


# -- cache maintenance --------------------------------------------------------------
class TestCacheMaintenance:
    def test_stats_reports_campaigns_and_leases(self, cache):
        spec = tiny_table()
        directory = campaign.init_campaign(spec, cache=cache)
        board = LeaseBoard(directory / "leases", "w0", ttl_s=300.0)
        board.claim("somekey")
        stats = cache.stats()
        assert stats["campaigns"] == 1
        assert stats["leases"] == 1
        assert stats["stale_leases"] == 0

    def test_prune_stale_leases(self, cache):
        spec = tiny_table()
        directory = campaign.init_campaign(spec, cache=cache)
        board = LeaseBoard(directory / "leases", "w0", ttl_s=300.0)
        board.claim("fresh")
        board.claim("stale")
        stale = board._path("stale")
        lease = json.loads(stale.read_text())
        lease["acquired"] = time.time() - 9999
        stale.write_text(json.dumps(lease))
        os.utime(stale, (time.time() - 9999, time.time() - 9999))
        assert cache.stats()["stale_leases"] == 1
        assert cache.prune_stale_leases() == 1
        assert not stale.exists()
        assert board._path("fresh").exists()

    def test_prune_quarantine(self, cache):
        qdir = cache.base / "quarantine"
        qdir.mkdir(parents=True)
        (qdir / "deadbeef.json").write_text("{}")
        assert cache.stats()["quarantine"] == 1
        assert cache.prune_quarantine() == 1
        assert cache.stats()["quarantine"] == 0

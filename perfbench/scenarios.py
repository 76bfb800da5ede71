"""The benchmark's four workloads, as set-up plus repeatable rounds.

Every workload runs in this one process on one thread; the host loop is
closed (the next operation starts when the previous one returns).

* ``oneshot_cold`` — the Fig. 12 point set at smoke size through a
  serial :class:`~repro.exec.ExecutionService` with a disk cache and
  verification on.  Round ``r`` draws its datasets from seed
  ``seed + r``, so no memo can make a round warm.
* ``sweep_warm`` — a Fig. 14-style sweep: B-Tree family on
  gpu/tta/ttaplus plus RTNN on rta/tta, workloads built and primed in
  set-up, every timed point at a GPU/TTA configuration this process has
  not run before.
* ``serve_read`` — four resident indexes, read-only open-loop loadtests
  on gpu, tta and ttaplus in turn (Poisson arrivals in virtual time).
* ``serve_churn`` — the same plus a 2:1 insert:delete write stream,
  every loadtest on a deep copy of the pristine indexes.

A round returns its host time (operations only; checks are untimed),
its operation count, the simulated statistics that make up the model
digest, and notes for the traced run.
"""

import copy
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exec import ExecutionService, ResultCache, make_spec
from repro.guard.faults import ServeFaults
from repro.harness import runner
from repro.harness.experiments import SCALES, default_config_policy
from repro.mutation import (MutableResidentIndex, MutationConfig,
                            WriteProfile, generate_write_events,
                            parse_rebuild_policy)
from repro.serve import (SERVE_SCALES, BatchPolicy, LaunchBackend,
                         LoadProfile, ResilienceConfig, build_resident_index,
                         run_loadtest)

from layers import SpanRecorder
from measure import Tally

SMOKE = SCALES["smoke"]

#: Fig. 12 points of the cold workload: (kind, platform).
COLD_POINTS = (("btree", "gpu"), ("btree", "tta"), ("btree", "ttaplus"),
               ("nbody", "gpu"), ("nbody", "tta"),
               ("rtnn", "rta"), ("rtnn", "tta"))

#: Sweep points: (kind, variant, platform).
SWEEP_POINTS = tuple(("btree", variant, platform)
                     for variant in ("btree", "bstar", "bplus")
                     for platform in ("gpu", "tta", "ttaplus")) + \
    (("rtnn", None, "rta"), ("rtnn", None, "tta"))

SERVE_PLATFORMS = ("gpu", "tta", "ttaplus")
#: Offered read rate: high enough that batches average ~3 queries.
SERVE_QPS = 4000.0
SERVE_DURATION_S = 0.1
SERVE_WARMUP_S = 0.02
SERVE_POLICY = BatchPolicy(max_batch=32, max_wait_s=2e-3)
#: Total write rate of the churn stream (2/3 inserts, 1/3 deletes),
#: with maintenance sized so every class refits and installs a rebuild.
CHURN_WPS = 500.0
CHURN_REFIT_EVERY = 3
CHURN_REBUILD_POLICY = "writes:9"
#: Writes per class and loadtest, the minimum within the first 80% of
#: virtual time: every class then refits and installs exactly one
#: rebuild, so rounds cost alike.  Write seeds outside this are skipped.
CHURN_WRITES = (11, 17)
#: Queries per class re-launched after each loadtest to check results.
CHECK_BATCH = 8

OFF = ResilienceConfig(mode="off")


@dataclass
class RoundResult:
    wall_s: float = 0.0
    ops: int = 0
    #: (slot, seconds, units, ops) per operation; see
    #: measure.best_of_rate.
    slots: List[Tuple[str, float, float, int]] = field(default_factory=list)
    parts: Dict[str, Any] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)


def _params(kind: str, seed: int, variant: str = "btree") -> Dict[str, Any]:
    if kind == "btree":
        n_keys, n_queries = SMOKE["btree_main"]
        return dict(variant=variant, n_keys=n_keys, n_queries=n_queries,
                    seed=seed)
    if kind == "nbody":
        return dict(n_bodies=SMOKE["nbody_bodies"], dims=3, seed=seed,
                    theta=0.6)
    n_points, n_queries = SMOKE["rtnn"]
    return dict(n_points=n_points, n_queries=n_queries, radius=1.0,
                seed=seed)


def point_stats(result) -> Dict[str, Any]:
    """Every simulated statistic of one point."""
    return {"cycles": result.cycles, "metrics": result.metrics.as_dict()}


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Scenario:
    """Base: one workload's set-up, rounds and repetition check."""

    name = ""

    def __init__(self, seed: int, workdir: str, rec: SpanRecorder):
        self.seed = seed
        self.workdir = workdir
        self.rec = rec
        self.setups = 0

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int, tally: Tally) -> RoundResult:
        raise NotImplementedError

    def repeat(self, tally: Tally) -> Dict[str, Any]:
        """Re-run part of round 0; the parts must equal round 0's."""
        raise NotImplementedError


# -- figure points ---------------------------------------------------------------
class _PointScenario(Scenario):

    def _fresh_service(self) -> None:
        runner.clear_workload_cache()
        self.setups += 1
        self.cache_dir = os.path.join(self.workdir, f"cache{self.setups}")
        self.service = ExecutionService(jobs=1,
                                        cache=ResultCache(self.cache_dir))
        self.round0: List[Any] = []

    def _run_points(self, specs, tally: Tally,
                    out: Optional[RoundResult] = None) -> RoundResult:
        out = out if out is not None else RoundResult()
        before = _dir_bytes(self.cache_dir)
        for i, spec in enumerate(specs):
            self.rec.op = f"{spec.label}#{i}"
            with tally.guarded(spec.label):
                started = time.perf_counter()
                result = self.service.run(spec)
                seconds = time.perf_counter() - started
                out.wall_s += seconds
                out.ops += 1
                out.slots.append((self._slot(spec), seconds,
                                  result.stats.total_warp_instructions, 1))
                tally.add(1)
                out.parts[f"p{i:02d}"] = {"spec": spec.canonical(),
                                          "stats": point_stats(result)}
        out.notes["cache_bytes"] = _dir_bytes(self.cache_dir) - before
        return out

    @staticmethod
    def _slot(spec) -> str:
        return f"{spec.kind}:{spec.workload.get('variant', '')}@" \
               f"{spec.platform}"

    def repeat(self, tally: Tally) -> Dict[str, Any]:
        """Round 0's specs through a memory-only service: workloads and
        launch records are warm now, and must give the same statistics."""
        service = ExecutionService(jobs=1)
        parts = {}
        for i, spec in enumerate(self.round0):
            with tally.guarded(f"repeat {spec.label}"):
                result = service.run(spec)
                tally.add(1)
                parts[f"p{i:02d}"] = {"spec": spec.canonical(),
                                      "stats": point_stats(result)}
        return parts


class OneshotCold(_PointScenario):
    name = "oneshot_cold"

    def setup(self) -> None:
        self._fresh_service()

    def specs(self, r: int):
        data_seed = self.seed + r
        return [make_spec(kind, _params(kind, data_seed), platform,
                          config=default_config_policy(kind))
                for kind, platform in COLD_POINTS]

    def round(self, r: int, tally: Tally) -> RoundResult:
        specs = self.specs(r)
        if r == 0:
            self.round0 = specs
        out = RoundResult()
        # Each dataset is built as its own timed step (the points then
        # find it in the runner's workload memo): shorter steps give the
        # best-of estimate more chances to miss other tenants' bursts.
        for spec in {s.kind: s for s in specs}.values():
            self.rec.op = f"build {spec.kind}"
            with tally.guarded(f"build {spec.kind}"):
                started = time.perf_counter()
                runner.build_workload(spec.kind, spec.workload)
                seconds = time.perf_counter() - started
                out.wall_s += seconds
                out.slots.append((f"build:{spec.kind}", seconds, 1, 0))
        return self._run_points(specs, tally, out)


class SweepWarm(_PointScenario):
    name = "sweep_warm"

    def setup(self) -> None:
        self._fresh_service()
        self._seen = set()
        # Build every workload, then prime each point at its default
        # config: lowering and recorded op streams are then warm.
        for spec in self._default_specs():
            runner.build_workload(spec.kind, spec.workload)
            self.service.run(spec)

    def _default_specs(self):
        return [make_spec(kind, _params(kind, self.seed, variant or "btree"),
                          platform, config=default_config_policy(kind))
                for kind, variant, platform in SWEEP_POINTS]

    def _draw(self, rng: random.Random, kind: str, platform: str
              ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        overrides = {"l2_latency": rng.randrange(100, 241),
                     "dram_latency": rng.randrange(150, 351)}
        if platform != "gpu":
            overrides["warp_buffer_warps"] = rng.choice((1, 2, 4, 8, 16))
        run_kwargs = {}
        if kind == "btree" and platform == "tta":
            run_kwargs["tta_latency_overrides"] = {
                "query_key": rng.randrange(3, 131)}
        return overrides, run_kwargs

    def specs(self, r: int):
        out = []
        for i, (kind, variant, platform) in enumerate(SWEEP_POINTS):
            rng = random.Random(f"sweep:{self.seed}:{r}:{i}")
            while True:
                overrides, run_kwargs = self._draw(rng, kind, platform)
                config = dict(default_config_policy(kind),
                              overrides=overrides)
                spec = make_spec(kind,
                                 _params(kind, self.seed, variant or "btree"),
                                 platform, config=config,
                                 run_kwargs=run_kwargs)
                if spec.key not in self._seen:
                    self._seen.add(spec.key)
                    break
            out.append(spec)
        return out

    def round(self, r: int, tally: Tally) -> RoundResult:
        specs = self.specs(r)
        if r == 0:
            self.round0 = specs
        return self._run_points(specs, tally)


# -- serving -----------------------------------------------------------------------
def _golden_match(index, qid: int, got) -> bool:
    """Does one served result equal the index's golden answer?"""
    if got is None:
        return False
    wl = index.workload
    cls = index.query_class
    if cls == "point":
        return got == wl.golden[qid]
    if cls == "range":
        return tuple(sorted(got)) == wl.golden(wl.windows[qid])
    if cls == "radius":
        return tuple(sorted(got)) == wl.golden(wl.queries[qid])
    q = wl.queries[qid]
    pts = wl.tree.points
    got_d = sorted((pts[i] - q).length_squared() for i in got)
    exp_d = sorted((pts[i] - q).length_squared() for i in wl.golden(q))
    return len(got_d) == len(exp_d) and all(
        abs(a - b) < 1e-9 for a, b in zip(got_d, exp_d))


def _backend(platform: str) -> LaunchBackend:
    return LaunchBackend(platform, resilience=OFF, faults=ServeFaults(None))


class _ServeScenario(Scenario):
    churn = False

    def setup(self) -> None:
        self.indexes = {}
        for cls, params in SERVE_SCALES["smoke"].items():
            index = build_resident_index(cls, dict(params, seed=self.seed))
            # Prime the per-query lowering memo for both accelerator
            # flavors, as a long-running server would have it.
            for flavor in ("tta", "ttaplus"):
                index.batch_jobs(range(index.n_canonical), flavor)
            self.indexes[cls] = index
        self.backends = {p: _backend(p) for p in SERVE_PLATFORMS}

    def _profile(self, r: int) -> LoadProfile:
        return LoadProfile(qps=SERVE_QPS, duration_s=SERVE_DURATION_S,
                           warmup_s=SERVE_WARMUP_S,
                           seed=self.seed * 1009 + r)

    def _mutation(self, r: int):
        if not self.churn:
            return None
        return MutationConfig(
            write=self._write_profile(r),
            policy=parse_rebuild_policy(CHURN_REBUILD_POLICY),
            refit_threshold=CHURN_REFIT_EVERY)

    def _write_profile(self, r: int) -> WriteProfile:
        """The first write stream from this round's seed sequence that
        gives every class a write count within ``CHURN_WRITES``."""
        profile = self._profile(r)
        classes = profile.classes()
        for k in range(1000):
            write = WriteProfile(mix={"insert": 2.0 * CHURN_WPS / 3.0,
                                      "delete": CHURN_WPS / 3.0},
                                 seed=(self.seed * 1013 + r) * 1000 + k)
            early = dict.fromkeys(classes, 0)
            total = dict.fromkeys(classes, 0)
            for event in generate_write_events(profile, write, classes):
                total[event.query_class] += 1
                if event.t < 0.8 * profile.total_s:
                    early[event.query_class] += 1
            low, high = CHURN_WRITES
            if min(early.values()) >= low and max(total.values()) <= high:
                return write
        raise RuntimeError("no write seed gives every class enough writes")

    def _loadtest(self, r: int, platform: str, mutation, tally: Tally):
        """One timed loadtest; returns (wall_s, report, indexes).
        ``mutation`` is the round's write stream (see :meth:`_mutation`),
        built by the caller so its search is not timed."""
        self.rec.op = f"round{r}/{platform}"
        indexes, backend = self.indexes, self.backends[platform]
        if self.churn:
            with self.rec.span("serve.copy"):
                indexes = copy.deepcopy(self.indexes)
            # A backend caches configs by id(index) and epoch; the ids of
            # short-lived copies are reused, so each copy gets its own.
            backend = _backend(platform)
        with self.rec.span("serve.loadtest"):
            started = time.perf_counter()
            report = run_loadtest(platform, indexes, self._profile(r),
                                  policy=SERVE_POLICY, backend=backend,
                                  resilience=OFF, mutation=mutation)
            wall = time.perf_counter() - started
        lost = report.failed + report.shed + report.rejected
        tally.add(report.offered, lost,
                  why=f"{platform}: {lost} queries not served")
        if report.mutation_summary is not None:
            summary = report.mutation_summary
            tally.add(summary["writes_applied"])
            for cls, counters in sorted(summary["per_class"].items()):
                short = counters["refits"] == 0 or counters["rebuilds"] == 0
                tally.add(1, int(short),
                          why=f"{platform}/{cls}: {counters['refits']} "
                              f"refits, {counters['rebuilds']} installed "
                              f"rebuilds (need at least one of each)")
        return wall, report, indexes

    def _check(self, platform: str, indexes, tally: Tally) -> None:
        """Re-launch one batch per class and compare with the golden
        answer of the index's live set."""
        checker = _backend(platform)
        with self.rec.span("check"):
            for cls, index in sorted(indexes.items()):
                with tally.guarded(f"check {platform}/{cls}"):
                    if self.churn:
                        # Writes after the class's last dispatch left the
                        # image stale; refresh it as a dispatch would.
                        MutableResidentIndex(index)._refresh()
                    step = max(1, index.n_canonical // CHECK_BATCH)
                    qids = list(range(0, index.n_canonical,
                                      step))[:CHECK_BATCH]
                    launch = checker.launch(index, qids)
                    bad = sum(1 for slot, qid in enumerate(qids)
                              if not _golden_match(index, qid,
                                                   launch.results.get(slot)))
                    tally.add(len(qids), bad,
                              why=f"check {platform}/{cls}: {bad} of "
                                  f"{len(qids)} results differ from golden")

    def round(self, r: int, tally: Tally) -> RoundResult:
        out = RoundResult(notes={"latencies_ms": [], "batch_sizes": []})
        with self.rec.span("serve.write_stream"):
            mutation = self._mutation(r)
        for platform in SERVE_PLATFORMS:
            with tally.guarded(f"loadtest {platform}"):
                wall, report, indexes = self._loadtest(r, platform, mutation,
                                                       tally)
                out.wall_s += wall
                out.ops += report.served
                out.slots.append((platform, wall, report.served,
                                  report.served))
                out.parts[platform] = report.to_dict()
                out.notes["latencies_ms"].extend(report.all_latencies_ms())
                out.notes["batch_sizes"].extend(report.batch_sizes)
                self._check(platform, indexes, tally)
        return out

    def repeat(self, tally: Tally) -> Dict[str, Any]:
        platform = self.repeat_platform
        with tally.guarded(f"repeat loadtest {platform}"):
            _, report, _ = self._loadtest(0, platform, self._mutation(0),
                                          tally)
            return {platform: report.to_dict()}
        return {}


class ServeRead(_ServeScenario):
    name = "serve_read"
    repeat_platform = "tta"


class ServeChurn(_ServeScenario):
    name = "serve_churn"
    churn = True
    repeat_platform = "gpu"


SCENARIOS = {cls.name: cls for cls in (OneshotCold, SweepWarm, ServeRead,
                                       ServeChurn)}

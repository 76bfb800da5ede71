"""Per-layer tracing for the benchmark's traced run.

The simulator is not edited: :func:`instrument` wraps the public entry
point of each ``repro`` layer with a span recorded here, and charges the
work inside ``GPU.launch`` to subpackages by profiler self-time.

* :class:`SpanRecorder` keeps spans in memory — name, start, end,
  parent, operation id, and a small info dict — and writes them out when
  the run ends.  While inactive, a wrapped call costs one attribute test.
* :func:`self_times` gives each span's duration minus the part of it its
  child spans cover.
* :func:`group_self_time` groups ``cProfile`` self-time by
  ``repro.<subpackage>``; builtins are charged to their caller.
* :func:`layer_metrics` turns the spans of the traced rounds into the
  benchmark's per-layer metrics.
* :func:`round_kind` says which rounds of a traced run record spans
  and which also profile.
"""

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Subpackages whose self-time inside ``GPU.launch`` is reported; the
#: rest (other ``repro`` subpackages, stdlib, numpy) is ``other``.
PROFILE_GROUPS = ("sim", "gpu", "memsys", "rta", "core", "kernels",
                  "geometry", "obs", "guard")

# Span record fields.
NAME, START, END, PARENT, OP, INFO = range(6)


class SpanRecorder:
    """In-memory span log of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.active = False
        #: While set (and active), ``GPU.launch`` runs under the profiler.
        self.profile = False
        self.op: Any = None
        self._stack: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op, None])
        self._stack.append(sid)
        self._depth[name] += 1
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[END] = self.clock()
        self._stack.pop()
        self._depth[span[NAME]] -= 1

    def inside(self, name: str) -> bool:
        """Is a span of this name open?"""
        return self._depth[name] > 0

    def info(self, sid: int) -> Dict[str, Any]:
        span = self.spans[sid]
        if span[INFO] is None:
            span[INFO] = {}
        return span[INFO]

    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def _span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def span(self, name: str):
        """Context manager; a no-op while the recorder is inactive."""
        return self._span(name) if self.active else nullcontext()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "info")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def round_kind(r: int, trace: bool) -> str:
    """``plain``, ``spans`` or ``profile`` for round ``r``.

    A traced run cycles plain, spans, plain, profile: layer times come
    from span-only rounds, launch self-time shares from profiled ones,
    and plain rounds give the untraced time the overhead is measured
    against.
    """
    if not trace or r % 2 == 0:
        return "plain"
    return "spans" if r % 4 == 1 else "profile"


# -- span arithmetic -----------------------------------------------------------
def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the union of its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(sid, ()) if e > start and s < end]
        out.append(end - start - _union_length(clipped))
    return out


def ancestors(spans: Sequence[list], sid: int):
    parent = spans[sid][PARENT]
    while parent >= 0:
        yield parent
        parent = spans[parent][PARENT]


# -- profiler grouping -----------------------------------------------------------
def profile_group(filename: str) -> str:
    """``repro.<subpackage>`` of a source path, or ``other``."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts) - 1:
            sub = parts[i + 1]
            return sub if sub in PROFILE_GROUPS else "other"
    return "other"


def group_self_time(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Self-time by group from a ``pstats.Stats.stats`` mapping.

    Entries are ``(file, line, func) -> (cc, nc, tt, ct, callers)``.
    Builtins (file ``~``) carry per-caller self-time in ``callers``;
    that time is charged to each caller's group.
    """
    totals = {group: 0.0 for group in PROFILE_GROUPS + ("other",)}
    for (filename, _, _), (_, _, tt, _, callers) in stats.items():
        if filename != "~":
            totals[profile_group(filename)] += tt
            continue
        charged = 0.0
        for caller, caller_stats in callers.items():
            share = caller_stats[2]
            caller_file = caller[0]
            group = "other" if caller_file == "~" \
                else profile_group(caller_file)
            totals[group] += share
            charged += share
        totals["other"] += max(0.0, tt - charged)
    return totals


def self_fractions(totals: Dict[str, float]) -> Dict[str, float]:
    """Shares of the grouped self-time; they sum to 1 (all 0 if empty)."""
    whole = sum(totals.values())
    return {group: (value / whole if whole else 0.0)
            for group, value in totals.items()}


# -- patching ----------------------------------------------------------------------
class Patches:
    """Attribute replacements, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _spanned(rec: SpanRecorder, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None):
    """Wrapper factory: one span per outermost call of ``name``.

    ``before(info, args, kwargs)`` runs ahead of the call (to note memo
    state) and ``after(info, result)`` after it; both only when a span
    is recorded.
    """
    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not rec.active or rec.inside(name):
                return func(*args, **kwargs)
            sid = rec.open(name)
            try:
                if before is not None:
                    before(rec.info(sid), args, kwargs)
                result = func(*args, **kwargs)
                if after is not None:
                    after(rec.info(sid), result)
                return result
            finally:
                rec.close(sid)
        return wrapper
    return make


def instrument(rec: SpanRecorder, profiler) -> Patches:
    """Wrap every layer's public entry points; returns the patches.

    ``profiler`` (a ``cProfile.Profile``) runs only inside
    ``GPU.launch`` and only while ``rec.profile`` is set, so its
    self-time is launch work and span timings can be taken from rounds
    it does not slow down.
    """
    import repro.gpu.device as device
    import repro.harness.runner as runner
    import repro.mutation.mutable_index as mutable_index
    import repro.workloads as workloads
    from repro.exec import ExecutionService
    from repro.mutation import mutators
    from repro.serve.backends import LaunchBackend
    from repro.serve.index import ResidentIndex
    from repro.trees.btree import _BTreeBase
    from repro.trees.bvh import BVH
    from repro.trees.kdtree import KDTree
    from repro.trees.octree import BarnesHutTree
    from repro.trees.rtree import RTree
    from repro.workloads.btree_workload import BTreeWorkload
    from repro.workloads.knn_workload import KNNWorkload
    from repro.workloads.nbody import NBodyWorkload
    from repro.workloads.rtnn import RTNNWorkload
    from repro.workloads.rtree_workload import RTreeWorkload

    patches = Patches()

    def wrap(owner, attr, name, **hooks):
        patches.replace(owner, attr, _spanned(rec, name, **hooks))

    # trees: constructors inside workload factories and mutator rebuilds
    for owner, attr in ((_BTreeBase, "bulk_load"), (RTree, "bulk_load"),
                        (BVH, "__init__"), (KDTree, "__init__"),
                        (KDTree, "rebuilt"), (BarnesHutTree, "__init__")):
        wrap(owner, attr, "trees.build")

    # workloads: factories, whole-workload lowering, per-query lowering
    for attr in ("make_btree_workload", "make_nbody_workload",
                 "make_rtnn_workload", "make_rtree_workload",
                 "make_knn_workload"):
        wrap(workloads, attr, "workloads.make")

    def note_jobs(info, args, kwargs):
        wl = args[0]
        flavor = args[1] if len(args) > 1 else kwargs["flavor"]
        n = wl.n_bodies if isinstance(wl, NBodyWorkload) else wl.n_queries
        info["qids"] = n
        info["hits"] = n if flavor in wl._jobs_cache else 0

    for cls in (BTreeWorkload, KNNWorkload, NBodyWorkload, RTNNWorkload,
                RTreeWorkload):
        wrap(cls, "jobs", "workloads.lower", before=note_jobs)
        wrap(cls, "kernel_args", "workloads.lower")

    def note_batch_jobs(info, args, kwargs):
        index, qids = args[0], args[1]
        flavor = args[2] if len(args) > 2 else kwargs["flavor"]
        memo = index._lowered
        info["qids"] = len(qids)
        info["hits"] = sum(1 for q in qids if (flavor, q) in memo)

    wrap(ResidentIndex, "batch_jobs", "workloads.lower",
         before=note_batch_jobs)

    # harness: golden checks; exec: service around the runner
    for attr in ("verify_results", "_verify_nbody", "_verify_rtnn"):
        wrap(runner, attr, "harness.verify")
    wrap(ExecutionService, "run", "exec.run")
    wrap(runner, "execute_spec", "exec.execute")

    # gpu: every launch, profiled; replay hits flagged on the launch span
    def launch_stats(info, stats):
        metrics = stats.metrics
        info["warp_insts"] = stats.total_warp_instructions
        info["cycles"] = stats.cycles
        info["l2"] = metrics.get("memsys.l2.accesses", 0.0)
        info["dram"] = metrics.get("memsys.dram.requests", 0.0)

    def profiled(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not (rec.active and rec.profile):
                return func(*args, **kwargs)
            profiler.enable()
            try:
                return func(*args, **kwargs)
            finally:
                profiler.disable()
        return wrapper

    patches.replace(device.GPU, "launch", profiled)
    wrap(device.GPU, "launch", "gpu.launch", after=launch_stats)

    def replay_hit(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stats = func(*args, **kwargs)
            sid = rec.current()
            if rec.active and stats is not None and sid is not None:
                rec.info(sid)["replay"] = 1
            return stats
        return wrapper

    patches.replace(device, "replay_launch", replay_hit)

    # serve and mutation
    wrap(LaunchBackend, "launch", "serve.launch")
    wrap(mutable_index.MutableResidentIndex, "apply", "mutation.apply")
    wrap(mutable_index.MutableResidentIndex, "ensure_ready",
         "mutation.refresh")
    wrap(mutable_index, "refresh_workload_image", "mutation.image_refresh")
    for cls in (mutators.BTreeMutator, mutators.RTreeMutator,
                mutators.KDTreeMutator, mutators.BVHMutator):
        wrap(cls, "rebuild", "mutation.rebuild")
        wrap(cls, "refit", "mutation.refit")
    return patches


# -- per-layer metrics ---------------------------------------------------------------
#: name -> unit of every per-layer metric :func:`layer_metrics` reports.
LAYER_UNITS = {
    "setup.trees.build_s": "s",
    "trees.build_s": "s/round",
    "trees.build_calls": "count",
    "workloads.make_s": "s/round",
    "workloads.lower_s": "s/round",
    "workloads.lower_hit_ratio": "ratio",
    "harness.verify_s": "s/round",
    "exec.overhead_s": "s/round",
    "exec.cache_bytes": "bytes/round",
    "gpu.launch_s": "s/round",
    "gpu.launch_calls": "count",
    "gpu.launch_replay_hits": "count",
    "gpu.host_us_per_warp_inst": "us",
    **{f"{group}.self_frac": "ratio"
       for group in PROFILE_GROUPS + ("other",)},
    "serve.launch_s": "s/round",
    "serve.loop_s": "s/round",
    "serve.batch_size_mean": "queries",
    "serve.sim_p50_ms": "ms",
    "serve.sim_tail_ms": "ms",
    "serve.sim_tail_pct": "%",
    "serve.sim_samples": "count",
    "mutation.apply_s": "s/round",
    "mutation.refresh_s": "s/round",
    "mutation.rebuild_s": "s/round",
    "mutation.writes": "count",
    "mutation.refits": "count",
    "mutation.rebuilds": "count",
    "mutation.refreshes": "count",
    "sim.cycles": "count",
    "sim.warp_instructions": "count",
    "memsys.l2.accesses": "count",
    "memsys.dram.requests": "count",
    "ops.median_over_best": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.profile_overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.rounds": "count",
}

#: Span names whose total time is a per-round layer time.
_TIMED = {
    "trees.build_s": "trees.build",
    "workloads.lower_s": "workloads.lower",
    "harness.verify_s": "harness.verify",
    "gpu.launch_s": "gpu.launch",
    "mutation.apply_s": "mutation.apply",
    "mutation.refresh_s": "mutation.refresh",
    "mutation.rebuild_s": "mutation.rebuild",
}

#: Span names counted over the first traced round.
_COUNTED = {
    "trees.build_calls": "trees.build",
    "gpu.launch_calls": "gpu.launch",
    "mutation.writes": "mutation.apply",
    "mutation.refits": "mutation.refit",
    "mutation.rebuilds": "mutation.rebuild",
    "mutation.refreshes": "mutation.image_refresh",
}


def layer_metrics(spans: Sequence[list], rounds: Sequence[int],
                  setup: Sequence[int], self_time_groups: Dict[str, float],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the spans of traced ``rounds`` (span ids
    of the ``round`` spans of span-only rounds; profiled rounds only
    feed ``self_time_groups``) and ``setup`` spans.

    Times are means per traced round, counts and model statistics are
    those of the first traced round (exact for a seed), ratios pool all
    traced rounds.  ``extra`` supplies what spans cannot see (cache
    bytes, loadtest latencies, overhead).
    """
    selfs = self_times(spans)
    n_rounds = max(1, len(rounds))
    round_set, setup_set = set(rounds), set(setup)
    round_of: Dict[int, int] = {}
    for sid in range(len(spans)):
        for anc in ancestors(spans, sid):
            if spans[anc][NAME] == "check":
                break       # result checks are untimed: no layer's cost
            if anc in round_set or anc in setup_set:
                round_of[sid] = anc
                break
    first = rounds[0] if rounds else None

    def in_rounds(sid):
        return round_of.get(sid) in round_set

    def total(name, only_first=False, measure=None):
        out = 0.0
        for sid, span in enumerate(spans):
            if span[NAME] != name or not in_rounds(sid):
                continue
            if only_first and round_of[sid] != first:
                continue
            out += measure(sid) if measure else span[END] - span[START]
        return out

    def count(name):
        return total(name, only_first=True, measure=lambda sid: 1.0)

    out: Dict[str, float] = {}
    for metric, name in _TIMED.items():
        out[metric] = total(name) / n_rounds
    for metric, name in _COUNTED.items():
        out[metric] = count(name)
    out["setup.trees.build_s"] = sum(
        spans[sid][END] - spans[sid][START] for sid in range(len(spans))
        if spans[sid][NAME] == "trees.build"
        and round_of.get(sid) in setup_set)
    out["workloads.make_s"] = total(
        "workloads.make", measure=lambda sid: selfs[sid]) / n_rounds
    out["exec.overhead_s"] = total(
        "exec.run", measure=lambda sid: selfs[sid]) / n_rounds
    out["serve.launch_s"] = total("serve.launch") / n_rounds
    out["serve.loop_s"] = total(
        "serve.loadtest", measure=lambda sid: selfs[sid]) / n_rounds

    info = lambda sid: spans[sid][INFO] or {}  # noqa: E731
    qids = total("workloads.lower", measure=lambda s: info(s).get("qids", 0))
    hits = total("workloads.lower", measure=lambda s: info(s).get("hits", 0))
    out["workloads.lower_hit_ratio"] = hits / qids if qids else 0.0
    out["gpu.launch_replay_hits"] = total(
        "gpu.launch", only_first=True,
        measure=lambda s: info(s).get("replay", 0))
    insts = total("gpu.launch", measure=lambda s: info(s).get("warp_insts", 0))
    out["gpu.host_us_per_warp_inst"] = \
        total("gpu.launch") * 1e6 / insts if insts else 0.0
    for metric, key in (("sim.cycles", "cycles"),
                        ("sim.warp_instructions", "warp_insts"),
                        ("memsys.l2.accesses", "l2"),
                        ("memsys.dram.requests", "dram")):
        out[metric] = total("gpu.launch", only_first=True,
                            measure=lambda s, k=key: info(s).get(k, 0))
    for group, share in self_fractions(self_time_groups).items():
        out[f"{group}.self_frac"] = share

    wall = sum(spans[r][END] - spans[r][START] for r in rounds)
    out["trace.unattributed_frac"] = \
        sum(selfs[r] for r in rounds) / wall if wall else 0.0
    out["trace.rounds"] = float(len(rounds))
    out.update(extra)
    missing = set(LAYER_UNITS) - set(out)
    for name in missing:
        out[name] = 0.0
    return out

"""Platform runners: execute one workload on one hardware design point.

Platforms:

=============  =====================================================
``gpu``        baseline GPU, traversal on the SIMT cores (no accel)
``rta``        unmodified RTA (ray workloads / RTNN only)
``tta``        the fixed-function extension (Query-Key, Point-to-Point)
``ttaplus``    the modular µop design (naive port)
``ttaplus_opt``TTA+ with the programmability-enabled optimization
               (*RTNN leaf offload, *WKND_PT Ray-Sphere, *SHIP_SH SATO)
=============  =====================================================

Every run *verifies functional results against the workload's golden
reference* before returning timing — a run that computes wrong answers
never produces a data point.
"""

from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, Optional, Tuple

from repro.core.ttaplus import make_ttaplus_factory
from repro.energy.model import EnergyBreakdown, energy_report
from repro.errors import ConfigurationError
from repro.gpu import GPU, GPUConfig, KernelStats
from repro.gpu.config import DEFAULT_CONFIG
from repro.kernels.btree_search import (
    btree_accel_kernel,
    btree_baseline_kernel,
)
from repro.kernels.nbody_walk import nbody_accel_kernel, nbody_baseline_kernel
from repro.kernels.radius_search import (
    radius_accel_kernel,
    radius_baseline_kernel,
)
from repro.kernels.ray_trace import rt_accel_kernel, rt_baseline_kernel
from repro.obs import EMPTY_METRICS
from repro.rta.rta import make_rta_factory
from repro.workloads.btree_workload import BTreeWorkload, verify_results
from repro.workloads.lumibench import LumiWorkload
from repro.workloads.nbody import NBodyWorkload
from repro.workloads.rtnn import RTNNWorkload
from repro.workloads.wknd import WKNDWorkload


@dataclass
class RunResult:
    """One (workload, platform) data point."""

    workload: str
    platform: str
    stats: KernelStats
    energy: EnergyBreakdown
    notes: Dict[str, Any] = dc_field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.stats.cycles

    @property
    def simt_efficiency(self) -> float:
        return self.stats.simt_efficiency

    @property
    def dram_utilization(self) -> float:
        return self.stats.dram_utilization

    @property
    def metrics(self):
        """The launch's :class:`repro.obs.MetricsSnapshot`.

        Results unpickled from a cache entry written before the metrics
        registry existed fall back to the shared empty snapshot.
        """
        snapshot = getattr(self.stats, "metrics", None)
        return snapshot if snapshot is not None else EMPTY_METRICS

    def metric(self, name: str, default: float = 0.0) -> float:
        """One scalar from the metrics registry (``repro.obs``)."""
        return self.metrics.get(name, default)

    def speedup_over(self, baseline: "RunResult") -> float:
        return baseline.cycles / self.cycles if self.cycles else 0.0


def scaled_config_for(data_bytes: int,
                      base: GPUConfig = DEFAULT_CONFIG,
                      pressure: float = 10.0) -> GPUConfig:
    """Shrink caches so a scaled workload pressures them like the paper's.

    The paper's largest trees (4M keys, ~32MB) exceed the 3MB L2 by
    ~10x; ``pressure`` sets the target data:L2 ratio for the scaled
    workload.  Sizes are clamped to valid cache geometries.
    """
    if data_bytes <= 0:
        raise ConfigurationError("data_bytes must be positive")
    line = base.line_size
    l2_floor = 16 * base.l2_assoc * line          # 16 sets minimum
    l2_size = max(l2_floor, int(data_bytes / pressure))
    l2_size = min(l2_size, base.l2_size)
    # Round to a whole number of sets.
    set_bytes = base.l2_assoc * line
    l2_size = (l2_size // set_bytes) * set_bytes
    l1_size = max(4 * line, min(base.l1_size, l2_size // 4))
    l1_size = (l1_size // line) * line
    return base.with_overrides(l1_size=l1_size, l2_size=l2_size)


def _accel_factory(platform: str, tta_latency_overrides=None,
                   ttaplus_knobs=None):
    """The accelerator factory of a ``tta``/``ttaplus`` platform (None
    on ``gpu``)."""
    if platform == "gpu":
        return None
    if platform == "tta":
        return make_rta_factory(tta=True,
                                latency_overrides=tta_latency_overrides)
    return make_ttaplus_factory(**(ttaplus_knobs or {}))


def _launch_queries(workload, platform: str, config: GPUConfig,
                    baseline, accel, factory, guard, tracer):
    """One thread per query: on ``gpu`` the ``baseline`` kernel on the
    bare GPU, else ``accel`` over the platform's lowered jobs on
    ``factory``'s accelerators.  Returns (stats, kernel args)."""
    if platform == "gpu":
        gpu, args, kernel = GPU(config), workload.kernel_args(), baseline
    else:
        gpu = GPU(config, accelerator_factory=factory)
        args = workload.kernel_args(jobs=workload.jobs(platform))
        kernel = accel
    stats = gpu.launch(kernel, workload.n_queries, args=args, guard=guard,
                       tracer=tracer)
    return stats, args


# -- B-Tree family -------------------------------------------------------------------
def run_btree(workload: BTreeWorkload, platform: str,
              config: Optional[GPUConfig] = None,
              verify: bool = True,
              tta_latency_overrides: Optional[Dict[str, int]] = None,
              ttaplus_knobs: Optional[Dict[str, Any]] = None,
              guard=None, tracer=None) -> RunResult:
    """``tta_latency_overrides`` adjusts fixed-function intersection
    latencies on the ``tta`` platform (Fig. 14's sensitivity knob);
    ``ttaplus_knobs`` are :func:`make_ttaplus_factory` keywords on the
    ``ttaplus`` platform (the TTA+ ablation's ``copies``,
    ``perfect_icnt`` and ``prefetch_depth``)."""
    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"{workload.variant}/{workload.n_queries}q"
    if tta_latency_overrides and platform != "tta":
        raise ConfigurationError(
            "tta_latency_overrides only applies to the tta platform"
        )
    if ttaplus_knobs and platform != "ttaplus":
        raise ConfigurationError(
            "ttaplus_knobs only applies to the ttaplus platform"
        )
    if platform not in ("gpu", "tta", "ttaplus"):
        raise ConfigurationError(
            f"B-Tree runs on gpu/tta/ttaplus, not {platform!r}"
        )
    factory = _accel_factory(platform, tta_latency_overrides, ttaplus_knobs)
    stats, args = _launch_queries(workload, platform, config,
                                  btree_baseline_kernel, btree_accel_kernel,
                                  factory, guard, tracer)
    if verify:
        verify_results(workload, args.results)
    return RunResult(name, platform, stats, energy_report(stats, config))


# -- N-Body ---------------------------------------------------------------------------
def run_nbody(workload: NBodyWorkload, platform: str,
              config: Optional[GPUConfig] = None,
              fused_post_insts: int = 0, verify: bool = True,
              guard=None, tracer=None) -> RunResult:
    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"nbody{workload.dims}d/{workload.n_bodies}"
    if platform == "gpu":
        gpu = GPU(config)
        args = workload.kernel_args(fused_post_insts=fused_post_insts)
        stats = gpu.launch(nbody_baseline_kernel, workload.n_bodies,
                           args=args, guard=guard, tracer=tracer)
    elif platform in ("tta", "ttaplus"):
        gpu = GPU(config, accelerator_factory=_accel_factory(platform))
        jobs, interactions = workload.jobs(platform)
        args = workload.kernel_args(jobs=jobs, interactions=interactions,
                                    fused_post_insts=fused_post_insts)
        stats = gpu.launch(nbody_accel_kernel, workload.n_bodies,
                           args=args, guard=guard, tracer=tracer)
    else:
        raise ConfigurationError(
            f"N-Body runs on gpu/tta/ttaplus, not {platform!r}"
        )
    if verify:
        _verify_nbody(workload, args.results)
    return RunResult(name, platform, stats, energy_report(stats, config),
                     notes={"fused_post_insts": fused_post_insts})


def _verify_nbody(workload: NBodyWorkload, results: Dict[int, Any]) -> None:
    """Sampled bodies must match a fresh scalar walk component for
    component (the kernels read the array walk; see ``force_on``)."""
    assert len(results) == workload.n_bodies
    tree = workload.tree
    for tid in range(0, workload.n_bodies, max(1, workload.n_bodies // 16)):
        expected = tree.force_on(tree.bodies[tid]).acceleration
        got = results[tid]
        assert got == expected, (
            f"body {tid}: force mismatch ({got!r} != {expected!r})"
        )


# -- RTNN radius search ------------------------------------------------------------
_RTNN_PLATFORMS = ("gpu", "rta", "tta", "ttaplus", "ttaplus_opt")


def run_rtnn(workload: RTNNWorkload, platform: str,
             config: Optional[GPUConfig] = None,
             verify: bool = True, guard=None, tracer=None) -> RunResult:
    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"rtnn/{len(workload.points)}pts"
    if platform not in _RTNN_PLATFORMS:
        raise ConfigurationError(
            f"RTNN platform must be one of {_RTNN_PLATFORMS}"
        )
    factory = (make_rta_factory(tta=False) if platform == "rta"
               else _accel_factory("ttaplus" if platform == "ttaplus_opt"
                                   else platform))
    stats, args = _launch_queries(workload, platform, config,
                                  radius_baseline_kernel, radius_accel_kernel,
                                  factory, guard, tracer)
    if verify:
        _verify_rtnn(workload, args.results)
    return RunResult(name, platform, stats, energy_report(stats, config))


def _verify_rtnn(workload: RTNNWorkload, results: Dict[int, Any]) -> None:
    assert len(results) == workload.n_queries
    step = max(1, workload.n_queries // 8)
    for tid in range(0, workload.n_queries, step):
        expected = workload.golden(workload.queries[tid])
        assert tuple(sorted(results[tid])) == expected, (
            f"query {tid}: neighbor set mismatch"
        )


# -- R-Tree range queries (spatial-index extension) -----------------------------------
def run_rtree(workload, platform: str,
              config: Optional[GPUConfig] = None,
              verify: bool = True, guard=None, tracer=None) -> RunResult:
    from repro.kernels.rtree_query import (
        rtree_accel_kernel,
        rtree_baseline_kernel,
    )

    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"rtree/{workload.n_queries}q"
    if platform not in ("gpu", "tta", "ttaplus"):
        raise ConfigurationError(
            f"R-Tree runs on gpu/tta/ttaplus, not {platform!r}"
        )
    stats, args = _launch_queries(workload, platform, config,
                                  rtree_baseline_kernel, rtree_accel_kernel,
                                  _accel_factory(platform), guard, tracer)
    if verify:
        step = max(1, workload.n_queries // 8)
        for tid in range(0, workload.n_queries, step):
            expected = workload.golden(workload.windows[tid])
            assert tuple(sorted(args.results[tid])) == expected, (
                f"query {tid}: range-query result mismatch"
            )
    return RunResult(name, platform, stats, energy_report(stats, config))


# -- kNN search (k-d tree extension) ---------------------------------------------------
def run_knn(workload, platform: str,
            config: Optional[GPUConfig] = None,
            verify: bool = True, guard=None, tracer=None) -> RunResult:
    from repro.kernels.knn_search import knn_accel_kernel, knn_baseline_kernel

    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"knn{workload.k}/{workload.n_queries}q"
    if platform not in ("gpu", "tta", "ttaplus"):
        raise ConfigurationError(
            f"kNN runs on gpu/tta/ttaplus, not {platform!r}"
        )
    stats, args = _launch_queries(workload, platform, config,
                                  knn_baseline_kernel, knn_accel_kernel,
                                  _accel_factory(platform), guard, tracer)
    if verify:
        step = max(1, workload.n_queries // 8)
        for tid in range(0, workload.n_queries, step):
            got = args.results[tid]
            expected = workload.golden(workload.queries[tid])
            # Distance ties may order differently; compare distances.
            q = workload.queries[tid]
            pts = workload.tree.points
            got_d = sorted((pts[i] - q).length_squared() for i in got)
            exp_d = sorted((pts[i] - q).length_squared() for i in expected)
            assert all(abs(a - b) < 1e-9 for a, b in zip(got_d, exp_d)), (
                f"query {tid}: kNN distances mismatch"
            )
    return RunResult(name, platform, stats, energy_report(stats, config))


# -- B+Tree range scans (negative-control extension) ---------------------------------
def run_rangescan(workload, platform: str,
                  config: Optional[GPUConfig] = None,
                  verify: bool = True, guard=None,
                  tracer=None) -> RunResult:
    """The baseline scans on the cores; ``tta`` offloads only the
    descent to the first qualifying leaf.  The notes carry the mean
    result count per range."""
    from repro.kernels.range_scan import (
        range_scan_accel_kernel,
        range_scan_baseline_kernel,
    )

    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"rangescan{workload.width}/{workload.n_queries}q"
    if platform not in ("gpu", "tta"):
        raise ConfigurationError(
            f"range scans run on gpu/tta, not {platform!r}"
        )
    stats, args = _launch_queries(workload, platform, config,
                                  range_scan_baseline_kernel,
                                  range_scan_accel_kernel,
                                  _accel_factory(platform), guard, tracer)
    if verify:
        for tid, (lo, hi) in enumerate(workload.ranges):
            assert args.results[tid] == workload.golden(lo, hi), (
                f"range {tid}: scan result mismatch"
            )
    avg = sum(len(keys) for keys in args.results.values()) / len(args.results)
    return RunResult(name, platform, stats, energy_report(stats, config),
                     notes={"avg_results": avg})


# -- ray tracing (LumiBench + WKND) ---------------------------------------------------
def run_lumibench(workload: LumiWorkload, platform: str,
                  config: Optional[GPUConfig] = None,
                  guard=None, tracer=None) -> RunResult:
    config = config if config is not None else DEFAULT_CONFIG
    sato = False
    if platform == "gpu":
        gpu = GPU(config)
        args = workload.kernel_args(flavor="rta")  # visits reused
        stats = gpu.launch(rt_baseline_kernel, workload.n_rays,
                           args=args, guard=guard, tracer=tracer)
        return RunResult(workload.name, platform, stats,
                         energy_report(stats, config))
    if platform == "rta":
        factory, flavor = make_rta_factory(tta=False), "rta"
    elif platform == "ttaplus":
        factory, flavor = make_ttaplus_factory(), "ttaplus"
    elif platform == "ttaplus_opt":
        factory, flavor = make_ttaplus_factory(), "ttaplus"
        sato = True
    else:
        raise ConfigurationError(
            f"LumiBench runs on gpu/rta/ttaplus/ttaplus_opt, not {platform!r}"
        )
    gpu = GPU(config, accelerator_factory=factory)
    args = workload.kernel_args(flavor=flavor, sato=sato)
    stats = gpu.launch(rt_accel_kernel, workload.n_rays,
                       args=args, guard=guard, tracer=tracer)
    return RunResult(workload.name + ("*" if sato else ""), platform, stats,
                     energy_report(stats, config))


def run_wknd(workload: WKNDWorkload, platform: str,
             config: Optional[GPUConfig] = None,
             perfect_node_fetch: bool = False,
             perfect_mem: bool = False, guard=None, tracer=None) -> RunResult:
    """WKND_PT: sphere geometry; platform selects the leaf-test path.

    ``perfect_node_fetch`` / ``perfect_mem`` implement the Fig. 17 limit
    study (Perf. RT and Perf. Mem).
    """
    config = config if config is not None else DEFAULT_CONFIG
    if perfect_mem:
        config = config.with_overrides(
            l1_latency=0, l2_latency=0, dram_latency=0,
            dram_bytes_per_cycle=1e9, l2_bytes_per_cycle=1e9)
    if platform == "rta":
        factory, flavor = make_rta_factory(tta=False), "rta"
    elif platform == "ttaplus":
        factory = make_ttaplus_factory(perfect_node_fetch=perfect_node_fetch)
        flavor = "ttaplus"
    elif platform == "ttaplus_opt":
        factory = make_ttaplus_factory(perfect_node_fetch=perfect_node_fetch)
        flavor = "ttaplus_opt"
    else:
        raise ConfigurationError(
            f"WKND_PT runs on rta/ttaplus/ttaplus_opt, not {platform!r}"
        )
    gpu = GPU(config, accelerator_factory=factory)
    args = workload.kernel_args(flavor=flavor)
    stats = gpu.launch(rt_accel_kernel, workload.n_rays,
                       args=args, guard=guard, tracer=tracer)
    name = "*WKND_PT" if platform == "ttaplus_opt" else "WKND_PT"
    return RunResult(name, platform, stats, energy_report(stats, config),
                     notes={"perfect_node_fetch": perfect_node_fetch,
                            "perfect_mem": perfect_mem})


# -- spec execution (repro.exec worker entry point) -----------------------------------
#
# The execution service ships :class:`repro.exec.spec.RunSpec` objects
# — pure data — to worker processes; this section turns a spec back
# into (workload, config, runner call).  Workload construction is
# memoized per process so a worker executing several points of the same
# sweep builds each tree once.  The memo holds one replicate per dataset
# shape: it is keyed on ``(kind, params without "seed")`` and keeps the
# seed beside the workload, so a request for another seed of a shape
# replaces that shape's entry (a resample supersedes the previous
# replicate).  A process walking seed after seed then holds one dataset
# per shape, not every one it has built.

def _workload_factories() -> Dict[str, Any]:
    from repro.workloads import (
        make_btree_workload,
        make_knn_workload,
        make_lumibench_workload,
        make_nbody_workload,
        make_rangescan_workload,
        make_rtnn_workload,
        make_rtree_workload,
        make_wknd_workload,
    )

    return {
        "btree": make_btree_workload,
        "nbody": make_nbody_workload,
        "rtnn": make_rtnn_workload,
        "wknd": make_wknd_workload,
        "lumi": make_lumibench_workload,
        "rtree": make_rtree_workload,
        "knn": make_knn_workload,
        "rangescan": make_rangescan_workload,
    }


#: ``(kind, params without "seed")`` -> ``(seed, workload)``.
_WORKLOAD_CACHE: Dict[Any, Tuple[Any, Any]] = {}


def build_workload(kind: str, params: Dict[str, Any]):
    """Construct (or reuse) the workload a spec describes.

    Only the latest seed of each dataset shape is kept: building
    another seed of a shape replaces the shape's entry.
    """
    factories = _workload_factories()
    if kind not in factories:
        raise ConfigurationError(
            f"no workload factory for kind {kind!r}; "
            f"known: {sorted(factories)}"
        )
    seed = params.get("seed")
    shape = (kind, tuple(sorted((k, v) for k, v in params.items()
                                if k != "seed")))
    entry = _WORKLOAD_CACHE.pop(shape, None)
    if entry is None or entry[0] != seed:
        # Let go of the superseded replicate before building its
        # successor, so the two are never alive together.
        entry = None
        entry = (seed, factories[kind](**params))
    _WORKLOAD_CACHE[shape] = entry
    return entry[1]


def clear_workload_cache() -> None:
    _WORKLOAD_CACHE.clear()


def resolve_config(policy: Optional[Dict[str, Any]],
                   workload) -> Optional[GPUConfig]:
    """Turn a spec's config *policy* into a concrete :class:`GPUConfig`.

    ``None`` defers to the runner's own default (the scaled policy for
    the CUDA workloads, ``DEFAULT_CONFIG`` for ray tracing).  Policies
    are resolved here — next to the built workload — because the scaled
    policy depends on the workload's memory footprint.
    """
    if policy is None:
        return None
    policy = dict(policy)
    name = policy.pop("policy", "scaled")
    overrides = policy.pop("overrides", None) or {}
    if name == "scaled":
        pressure = policy.pop("pressure", 10.0)
        config = scaled_config_for(workload.image.size_bytes,
                                   pressure=pressure)
    elif name == "default":
        config = DEFAULT_CONFIG
    else:
        raise ConfigurationError(
            f"unknown config policy {name!r} (scaled/default)"
        )
    if policy:
        raise ConfigurationError(
            f"unrecognized config policy fields: {sorted(policy)}"
        )
    return config.with_overrides(**overrides) if overrides else config


_SPEC_RUNNERS: Dict[str, Any] = {
    "btree": run_btree,
    "nbody": run_nbody,
    "rtnn": run_rtnn,
    "wknd": run_wknd,
    "lumi": run_lumibench,
    "rtree": run_rtree,
    "knn": run_knn,
    "rangescan": run_rangescan,
}


def execute_spec(spec, guard=None, tracer=None) -> RunResult:
    """Execute one :class:`repro.exec.spec.RunSpec` end to end.

    This is the function worker processes run.  Verification against
    golden references happens inside the ``run_*`` runner exactly as on
    the serial path — a parallel run can never return an unverified
    data point.  ``guard`` and ``tracer`` go to the runner's
    ``GPU.launch`` calls, as they do for every ``run_*`` runner (None:
    the ``$REPRO_GUARD`` default, and no tracing).
    """
    workload = build_workload(spec.kind, spec.workload)
    config = resolve_config(spec.config, workload)
    return _SPEC_RUNNERS[spec.kind](workload, spec.platform, config=config,
                                    guard=guard, tracer=tracer,
                                    **spec.run_kwargs)

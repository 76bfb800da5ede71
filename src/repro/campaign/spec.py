"""Declarative factorial run tables: ``CampaignSpec`` → ``RunSpec`` grid.

A campaign is the cross product of four axes —

* **workload**: one or more workload families, each with a parameter
  grid (list-valued parameters multiply; scalars are held fixed);
* **platform**: the hardware design points to run on;
* **config**: labeled GPU config *policies* (the same policy dicts
  :class:`~repro.exec.spec.RunSpec` carries);
* **rep**: repetition index.  Reps are not re-measurements of one
  deterministic point — the simulator would return the identical result
  — but *dataset resamples*: rep ``r`` offsets the workload ``seed`` by
  ``r``, so each rep builds a different random instance of the same
  workload shape and the spread across reps is real variance.

minus **axis constraints**: platforms a family cannot run on are
dropped automatically (:data:`KIND_PLATFORMS`), and ``exclude`` entries
remove any combination matching a subset of the axis coordinates.

Expansion is pure and deterministic: the same campaign document always
yields the same ordered list of :class:`CampaignPoint`, each wrapping a
content-addressed :class:`~repro.exec.spec.RunSpec`.  That determinism
is what lets N workers on N hosts expand the table independently and
coordinate *only* through the exec cache and the lease directory —
there is no queue server to talk to.
"""

import hashlib
import itertools
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.leases import DEFAULT_LEASE_TTL_S
from repro.errors import ConfigurationError
from repro.exec.spec import KINDS, RunSpec, code_fingerprint, make_spec

#: Platforms each workload family's runner accepts (the CLI ``sweep``
#: command shares this table).
KIND_PLATFORMS = {
    "btree": ("gpu", "tta", "ttaplus"),
    "nbody": ("gpu", "tta", "ttaplus"),
    "rtnn": ("gpu", "rta", "tta", "ttaplus", "ttaplus_opt"),
    "rtree": ("gpu", "tta", "ttaplus"),
    "knn": ("gpu", "tta", "ttaplus"),
    "wknd": ("rta", "ttaplus", "ttaplus_opt"),
    "lumi": ("gpu", "rta", "ttaplus", "ttaplus_opt"),
    "rangescan": ("gpu", "tta"),
}

@dataclass(frozen=True)
class CampaignPoint:
    """One expanded cell of the run table.

    ``axes`` carries the human-facing coordinates (kind, resolved
    params, platform, config label, rep); ``spec`` is the
    content-addressed work unit whose key doubles as the point's
    identity in the cache, the lease directory, and the manifest.
    """

    axes: Dict[str, Any]
    spec: RunSpec

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def label(self) -> str:
        return (f"{self.spec.label}"
                f"/{self.axes['config']}#r{self.axes['rep']}")


def _as_grid(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Cross product of the list-valued parameters (scalars fixed)."""
    keys = sorted(params)
    lists = [params[k] if isinstance(params[k], (list, tuple))
             else [params[k]] for k in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*lists)]


def _matches(axes: Dict[str, Any], pattern: Dict[str, Any]) -> bool:
    """True when every pattern field equals the point's coordinate.

    Workload parameters are matched through the ``params`` mapping, so
    ``{"kind": "btree", "params": {"n_keys": 512}}`` excludes only the
    512-key cells.
    """
    for field_name, wanted in pattern.items():
        if field_name == "params":
            for pkey, pval in wanted.items():
                if axes["params"].get(pkey) != pval:
                    return False
            continue
        if axes.get(field_name) != wanted:
            return False
    return True


@dataclass
class CampaignSpec:
    """A declarative factorial run table, pure JSON-serializable data."""

    name: str
    workloads: List[Dict[str, Any]]
    platforms: List[str]
    configs: List[Optional[Dict[str, Any]]] = field(
        default_factory=lambda: [None])
    reps: int = 1
    base_seed: int = 0
    exclude: List[Dict[str, Any]] = field(default_factory=list)
    run_kwargs: Dict[str, Any] = field(default_factory=dict)
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ConfigurationError(
                f"campaign name must be a non-empty path-safe string, "
                f"got {self.name!r}")
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps}")
        if not self.workloads:
            raise ConfigurationError("campaign needs at least one workload")
        if not self.platforms:
            raise ConfigurationError("campaign needs at least one platform")
        for entry in self.workloads:
            kind = entry.get("kind")
            if kind not in KINDS:
                raise ConfigurationError(
                    f"unknown workload kind {kind!r}; pick from {KINDS}")
            if "churn" in entry:
                _check_churn_axis(kind, entry["churn"])
        known = set()
        for kind in (e["kind"] for e in self.workloads):
            known.update(KIND_PLATFORMS[kind])
        bad = [p for p in self.platforms if p not in known]
        if bad:
            raise ConfigurationError(
                f"platform(s) {bad} not valid for any campaign workload")
        if not self.configs:
            raise ConfigurationError(
                "configs cannot be empty; use [null] for runner defaults")

    # -- canonical form / identity --------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workloads": self.workloads,
            "platforms": self.platforms,
            "configs": self.configs,
            "reps": self.reps,
            "base_seed": self.base_seed,
            "exclude": self.exclude,
            "run_kwargs": self.run_kwargs,
            "lease_ttl_s": self.lease_ttl_s,
        }

    def canonical(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def campaign_id(self) -> str:
        """Content address of the run table *under this code version*.

        Folding :func:`code_fingerprint` in means a campaign directory
        can never mix points produced by different simulator revisions:
        a new version is a new campaign.
        """
        body = f"{self.canonical()}|{code_fingerprint()}"
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    @property
    def slug(self) -> str:
        """Directory-name form: ``<name>-<id12>``."""
        return f"{self.name}-{self.campaign_id[:12]}"

    # -- serialization ---------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        try:
            return cls(
                name=data["name"],
                workloads=list(data["workloads"]),
                platforms=list(data["platforms"]),
                configs=list(data.get("configs") or [None]),
                reps=int(data.get("reps", 1)),
                base_seed=int(data.get("base_seed", 0)),
                exclude=list(data.get("exclude") or []),
                run_kwargs=dict(data.get("run_kwargs") or {}),
                lease_ttl_s=float(data.get("lease_ttl_s",
                                           DEFAULT_LEASE_TTL_S)),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"campaign document missing required field {exc}") from None

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise ConfigurationError(
                f"campaign file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def write(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1,
                                   sort_keys=True) + "\n")
        return path

    # -- expansion -------------------------------------------------------------
    def expand(self) -> List[CampaignPoint]:
        """The full, ordered, constraint-filtered run table."""
        points: List[CampaignPoint] = []
        for entry in self.workloads:
            kind = entry["kind"]
            valid = KIND_PLATFORMS[kind]
            grid_params = dict(entry.get("params") or {})
            if "churn" in entry:
                # Churn is a workload axis like any grid parameter: a
                # list of specs multiplies, and the value rides in the
                # spec's workload params so the factory pre-churns the
                # build (only run results are persisted, never builds).
                grid_params["churn"] = entry["churn"]
            grid = _as_grid(grid_params)
            for combo in grid:
                for platform in self.platforms:
                    if platform not in valid:
                        continue  # axis constraint: runner would reject
                    for config in self.configs:
                        label, policy = _config_label(config)
                        for rep in range(self.reps):
                            params = dict(combo)
                            # Rep r resamples the dataset: distinct
                            # seed, distinct spec key, real variance.
                            params["seed"] = int(
                                params.get("seed", self.base_seed)) + rep
                            axes = {"kind": kind, "params": params,
                                    "platform": platform, "config": label,
                                    "rep": rep}
                            if any(_matches(axes, pat)
                                   for pat in self.exclude):
                                continue
                            spec = make_spec(
                                kind, params, platform, config=policy,
                                run_kwargs=dict(self.run_kwargs) or None)
                            points.append(CampaignPoint(axes=axes,
                                                        spec=spec))
        if not points:
            raise ConfigurationError(
                "campaign expands to zero points (constraints removed "
                "every cell)")
        seen: Dict[str, CampaignPoint] = {}
        for point in points:
            first = seen.setdefault(point.key, point)
            if first is not point:
                raise ConfigurationError(
                    f"campaign cells {first.label} and {point.label} "
                    f"expand to the same RunSpec; make an axis distinguish "
                    f"them or drop one")
        return points


def _check_churn_axis(kind: str, churn: Any) -> None:
    """Validate a workload entry's ``churn`` axis at spec-build time.

    Only tree-serving kinds accept churn (their workload factories grew
    the ``churn`` kwarg); each spec must parse as ``<mix>@<writes>``.
    """
    from repro.mutation import CHURN_KINDS
    from repro.mutation.stream import parse_churn

    if kind not in CHURN_KINDS:
        raise ConfigurationError(
            f"workload kind {kind!r} does not support the churn axis; "
            f"churnable kinds: {sorted(CHURN_KINDS)}")
    values = churn if isinstance(churn, (list, tuple)) else [churn]
    for value in values:
        if value is None:
            continue   # explicit "no churn" cell in a churn sweep
        parse_churn(value)


def _config_label(config: Optional[Dict[str, Any]]):
    """Split a config axis entry into (label, policy-for-RunSpec)."""
    if config is None:
        return "default", None
    policy = dict(config)
    label = policy.pop("label", None)
    if not policy:
        # A bare {"label": ...} entry means "runner default", labeled.
        return (label or "default"), None
    if label is None:
        label = policy.get("policy", "custom")
        overrides = policy.get("overrides") or {}
        if overrides:
            label += "+" + ",".join(f"{k}={v}"
                                    for k, v in sorted(overrides.items()))
    return label, policy


def worker_order(points: Sequence[CampaignPoint],
                 worker_id: str) -> List[CampaignPoint]:
    """Deterministic per-worker walk order over the shared table.

    Every worker sees all points (any of them may need stealing), but
    each starts at a different, id-derived offset and stride so that
    concurrent workers claim disjoint runs of the table instead of
    racing pairwise on the same next cell.  The walk is dataset-major:
    the offset and stride step over the distinct datasets (points
    grouped by kind and workload params, seed included, in table
    order), and each dataset's points run back to back, rotated by the
    same offset.  A worker thus builds each dataset once even though
    the workload memo keeps only one seed per shape.
    """
    if len(points) <= 1:
        return list(points)
    digest = hashlib.sha256(worker_id.encode("utf-8")).digest()
    offset = int.from_bytes(digest[:4], "big")
    groups: Dict[Any, List[CampaignPoint]] = {}
    for point in points:
        dataset = (point.spec.kind,
                   json.dumps(point.spec.workload, sort_keys=True))
        groups.setdefault(dataset, []).append(point)
    datasets = list(groups.values())
    n = len(datasets)
    # An odd stride is coprime with any power-of-two n and rarely shares
    # factors otherwise; fall back to 1 when it does.
    stride = int.from_bytes(digest[4:8], "big") % n | 1
    if math.gcd(stride, n) != 1:
        stride = 1
    order: List[CampaignPoint] = []
    for i in range(n):
        dataset = datasets[(offset + i * stride) % n]
        start = offset % len(dataset)
        order.extend(dataset[start:] + dataset[:start])
    return order

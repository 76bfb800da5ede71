"""Content-addressed on-disk cache of completed runs.

Layout (one entry per :class:`~repro.exec.spec.RunSpec` key)::

    <root>/v1/<key[:2]>/<key>.pkl    pickled RunResult
    <root>/v1/<key[:2]>/<key>.json   spec + creation metadata (debuggable)

That is all it holds, beside quarantined entries: resident indexes
(:mod:`repro.serve`) are built in process, never read from disk, and
the campaign directories under ``<root>/campaigns/`` with their leases
belong to :mod:`repro.campaign`.

The pickle is the payload; the JSON sidecar exists so ``repro cache
stats`` and humans can see *what* an entry is without unpickling it,
and it carries the payload's SHA-256 so reads are validated.  Writes
are atomic (tempfile + ``os.replace``) so a killed sweep never leaves a
truncated entry behind; a corrupt entry (checksum mismatch, truncated
pickle, unreadable sidecar payload) is *quarantined* — moved to
``<root>/corrupt/`` for post-mortem instead of silently deleted — and
reported as a miss, so the point is recomputed rather than poisoning
the sweep.

The root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
Because the engine is deterministic, a cache hit is byte-identical to
re-running the simulation (``tests/test_exec.py`` asserts this), so
resuming an interrupted sweep only executes the missing points.
"""

import hashlib
import json
import os
import pathlib
import pickle
import shutil
import time
from typing import Any, Dict, Optional, Tuple

from repro.exec.spec import RunSpec

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk format version: bump when the entry layout/serialization
#: changes.  Distinct from the spec schema, which governs *keys*.
FORMAT = "v1"


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


class ResultCache:
    """Filesystem-backed, content-addressed RunResult store."""

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        self.base = pathlib.Path(root) if root is not None \
            else default_cache_dir()
        self.root = self.base / FORMAT

    # -- paths ----------------------------------------------------------------
    def _paths(self, key: str) -> Tuple[pathlib.Path, pathlib.Path]:
        shard = self.root / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

    def metrics_path(self, key: str) -> pathlib.Path:
        """Flat ``repro.obs`` metrics sidecar for entry ``key``.

        Written at :meth:`put` time when the result carries a non-empty
        metrics snapshot, so dashboards and humans can read a run's
        metric values without unpickling the RunResult.
        """
        shard = self.root / key[:2]
        return shard / f"{key}.metrics.json"

    # -- read -----------------------------------------------------------------
    def contains(self, spec: RunSpec) -> bool:
        return self._paths(spec.key)[0].exists()

    def get(self, spec: RunSpec) -> Optional[Any]:
        """Return the cached RunResult for ``spec``, or None on a miss.

        A corrupt or unreadable entry (interrupted write from an older,
        pre-atomic layout, disk fault, unpicklable class drift, payload
        not matching the sidecar's SHA-256) is quarantined into
        ``<root>/corrupt/`` and reported as a miss rather than
        poisoning the run.
        """
        pkl, meta = self._paths(spec.key)
        try:
            with open(pkl, "rb") as fh:
                payload = fh.read()
            expected = self._expected_sha(meta)
            if expected is not None and \
                    hashlib.sha256(payload).hexdigest() != expected:
                raise ValueError(f"cache entry {spec.key} fails its checksum")
            return pickle.loads(payload)
        except FileNotFoundError:
            return None
        except Exception:
            self.quarantine(spec.key)
            return None

    @staticmethod
    def _expected_sha(meta: pathlib.Path) -> Optional[str]:
        """The payload checksum recorded at put() time, if any.

        Entries written before checksums existed (or with a damaged
        sidecar) validate by unpickling alone.
        """
        try:
            with open(meta, "r") as fh:
                return json.load(fh).get("sha256")
        except Exception:
            return None

    def quarantine(self, key: str) -> None:
        """Move a damaged entry to ``<root>/corrupt/`` (delete as a
        last resort), so it reads as a miss but survives post-mortem."""
        pkl, meta = self._paths(key)
        corrupt_dir = self.base / "corrupt"
        try:
            corrupt_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            corrupt_dir = None
        for path in (pkl, meta, self.metrics_path(key)):
            moved = False
            if corrupt_dir is not None:
                try:
                    os.replace(path, corrupt_dir / path.name)
                    moved = True
                except OSError:
                    pass
            if not moved:
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- write ----------------------------------------------------------------
    def put(self, spec: RunSpec, result: Any,
            seconds: Optional[float] = None) -> None:
        pkl, meta = self._paths(spec.key)
        pkl.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(result, protocol=4)
        self._atomic_write(pkl, payload)
        sidecar = {
            "spec": spec.canonical(),
            "label": spec.label,
            "created": time.time(),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        if seconds is not None:
            sidecar["seconds"] = seconds
        self._atomic_write(meta, json.dumps(sidecar, indent=1).encode())
        snapshot = getattr(getattr(result, "stats", None), "metrics", None)
        if snapshot:
            doc = {"spec": spec.canonical(), "label": spec.label,
                   "metrics": snapshot.as_dict()}
            self._atomic_write(self.metrics_path(spec.key),
                               json.dumps(doc, indent=1,
                                          default=str).encode())

    def result_sha(self, key: str) -> Optional[str]:
        """The SHA-256 of entry ``key``'s payload, from its sidecar.

        None on a miss (or a pre-checksum entry) — campaign manifests
        use this to fingerprint per-point results without unpickling.
        """
        return self._expected_sha(self._paths(key)[1])

    @staticmethod
    def _atomic_write(path: pathlib.Path, payload: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)

    # -- maintenance -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        entries = 0
        size = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.pkl"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        corrupt = 0
        corrupt_dir = self.base / "corrupt"
        if corrupt_dir.is_dir():
            corrupt = sum(1 for _ in corrupt_dir.glob("*.pkl"))
        quarantine = 0
        quarantine_dir = self.base / "quarantine"
        if quarantine_dir.is_dir():
            quarantine = sum(1 for _ in quarantine_dir.glob("*.json"))
        return {"root": str(self.base), "format": FORMAT,
                "entries": entries, "bytes": size, "corrupt": corrupt,
                "quarantine": quarantine}

    def prune_quarantine(self) -> int:
        """Drop post-mortem artifacts: guard bundles and corrupt entries."""
        removed = 0
        for directory in (self.base / "quarantine", self.base / "corrupt"):
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Delete every run entry; returns how many."""
        removed = self.stats()["entries"]
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)
        return removed

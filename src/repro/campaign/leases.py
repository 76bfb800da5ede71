"""Atomic lease files: how campaign workers claim points.

The whole scheduler is filesystem rendezvous — there is no coordinator
process to crash.  One lease file per in-flight point lives under
``<campaign_dir>/leases/<spec key>.json`` and the protocol is three
moves:

**Claim** — ``open(O_CREAT | O_EXCL)``: exactly one worker can create
the file, and that worker owns the point.  Everyone else moves on to
the next cell of the table (work *stealing* is the fallback, work
*spreading* is the common case — see
:func:`~repro.campaign.spec.worker_order`).

**Release** — the owner unlinks the lease after the point's result has
landed in the exec cache (or its failure record has been written).
Order matters: result first, lease second, so a crash between the two
leaves a *completed* point with a stale lease — which merely expires —
never a claimed point with no owner working on it.

**Steal** — a lease older than its TTL (or whose owner is a provably
dead local process) is up for grabs.  Stealing must itself be atomic:
the thief writes its own lease content (with a fresh random nonce) to a
temp file and ``os.replace``\\ s it over the stale lease, then *reads
the file back*; whoever's nonce survives the replace race owns the
point.  Losing the race costs a tempfile, never a double-claim.

Double *execution* (thief and a not-quite-dead owner both simulating
the same point) is possible by design and harmless: the simulator is
deterministic and cache writes are atomic, so both produce the same
bytes and one of the two identical results wins the ``os.replace``.
Expiry uses each writer's own clock plus the file mtime (whichever is
later), so multi-host stealing only assumes clocks agree to within the
TTL, not to the millisecond.  Cache maintenance (``repro cache stats``,
``repro cache prune --stale-leases``) applies this same rule through
:func:`sweep_campaigns`, which also finds the one-off drain tables of
``--jobs N`` batches that a killed run left behind.
"""

import json
import os
import pathlib
import shutil
import socket
import time
import uuid
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError

#: Default lease time-to-live: how long a claimed point may sit without
#: its worker finishing before siblings may steal it.
DEFAULT_LEASE_TTL_S = 300.0

#: A campaign directory's lease subdirectory.
LEASES_DIR = "leases"

#: Name prefix of the one-off drain tables that ``repro run``/``sweep
#: --jobs N`` batches create under the cache's ``campaigns/``.
DRAIN_PREFIX = "run-"

#: Lease sidecars end in .json; everything else in the directory is a
#: writer's temp file and can be ignored.
_SUFFIX = ".json"


class LeaseBoard:
    """One worker's view of a campaign's lease directory."""

    def __init__(self, root, worker_id: str,
                 ttl_s: float = DEFAULT_LEASE_TTL_S) -> None:
        self.root = pathlib.Path(root)
        self.worker_id = worker_id
        self.ttl_s = float(ttl_s)
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.claimed = 0
        self.stolen = 0
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths / payloads -----------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}{_SUFFIX}"

    def _payload(self) -> Dict[str, Any]:
        return {
            "worker": self.worker_id,
            "host": self.host,
            "pid": self.pid,
            "nonce": uuid.uuid4().hex,
            "acquired": time.time(),
            "ttl_s": self.ttl_s,
        }

    @staticmethod
    def _read(path: pathlib.Path) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            # Mid-write or vanished lease: treat as unreadable; the
            # caller retries next pass, by which time it is either a
            # valid lease or gone.
            return None

    def _expired(self, path: pathlib.Path,
                 lease: Optional[Dict[str, Any]]) -> bool:
        if lease is None:
            # Unreadable but present: only the mtime can vouch for it.
            try:
                return time.time() - path.stat().st_mtime > self.ttl_s
            except OSError:
                return False
        ttl = float(lease.get("ttl_s", self.ttl_s))
        acquired = float(lease.get("acquired", 0.0))
        try:
            acquired = max(acquired, path.stat().st_mtime)
        except OSError:
            pass
        if time.time() - acquired > ttl:
            return True
        # A lease held by a dead process on *this* host is stealable
        # immediately — no point waiting out the TTL.
        if lease.get("host") == self.host:
            pid = lease.get("pid")
            if isinstance(pid, int) and pid > 0 and not _pid_alive(pid):
                return True
        return False

    # -- the protocol ----------------------------------------------------------
    def claim(self, key: str) -> bool:
        """Try to create the lease; True means this worker owns ``key``."""
        path = self._path(key)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        try:
            os.write(fd, json.dumps(self._payload()).encode())
        finally:
            os.close(fd)
        self.claimed += 1
        return True

    def steal(self, key: str) -> bool:
        """Take over an expired lease; True means this worker now owns it.

        No-op (False) while the lease is live.  The replace-then-read
        sequence makes concurrent steals safe: both replaces succeed,
        but only one nonce is in the file afterwards.
        """
        path = self._path(key)
        if not path.exists():
            return False
        if not self._expired(path, self._read(path)):
            return False
        payload = self._payload()
        tmp = path.with_suffix(f".steal.{self.pid}.{payload['nonce'][:8]}")
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        current = self._read(path)
        won = bool(current) and current.get("nonce") == payload["nonce"]
        if won:
            self.stolen += 1
        return won

    def acquire(self, key: str) -> bool:
        """Claim, falling back to stealing an expired lease."""
        return self.claim(key) or self.steal(key)

    def release(self, key: str) -> None:
        path = self._path(key)
        try:
            path.unlink()
        except OSError:
            pass

    def holder(self, key: str) -> Optional[Dict[str, Any]]:
        return self._read(self._path(key))

    # -- maintenance -----------------------------------------------------------
    def sweep(self, prune: bool = False) -> Dict[str, int]:
        """Count live vs expired leases (``repro campaign status``);
        ``prune`` also unlinks the expired ones."""
        live = expired = 0
        for path in self.root.glob(f"*{_SUFFIX}"):
            if not self._expired(path, self._read(path)):
                live += 1
                continue
            expired += 1
            if prune:
                self.release(path.stem)
        return {"live": live, "expired": expired}


def sweep_campaigns(campaigns_root, prune: bool = False) -> Dict[str, int]:
    """Lease counts over every campaign directory under ``campaigns_root``.

    Backs ``repro cache stats`` and ``repro cache prune --stale-leases``
    (``prune`` unlinks the expired leases).  Each campaign's leases are
    judged by a :class:`LeaseBoard` with that campaign's TTL, so a lease
    is expired here exactly when ``repro campaign status`` says so.
    Pruning is safe against live sweeps: a worker that was merely slow
    re-acquires through the same claim/steal protocol, and running a
    deterministic point twice yields the same bytes.

    ``orphans`` counts orphaned drain tables (see
    :func:`_orphaned_drain`); ``prune`` removes them whole.
    """
    totals = {"campaigns": 0, "live": 0, "expired": 0, "orphans": 0}
    root = pathlib.Path(campaigns_root)
    if not root.is_dir():
        return totals
    for directory in root.iterdir():
        if not directory.is_dir():
            continue
        totals["campaigns"] += 1
        ttl = campaign_ttl(directory)
        # Judged before pruning, which touches the lease directory.
        orphaned = _orphaned_drain(directory, ttl)
        counts = {"live": 0, "expired": 0}
        if (directory / LEASES_DIR).is_dir():
            board = LeaseBoard(directory / LEASES_DIR, "cache-maintenance",
                               ttl_s=ttl)
            counts = board.sweep(prune)
        for name, count in counts.items():
            totals[name] += count
        if orphaned and not counts["live"]:
            totals["orphans"] += 1
            if prune:
                shutil.rmtree(directory, ignore_errors=True)
    return totals


def _orphaned_drain(directory: pathlib.Path, ttl_s: float) -> bool:
    """Whether ``directory`` is a drain table nothing works on any more.

    A drain table is a ``run-`` directory without a run-table file
    (every user campaign has one).  It is orphaned when its lease
    board has seen no claim or release for ``ttl_s`` and no process of
    this host holds a lease on it; the caller also requires that no
    lease is live.  A running batch between two claims, or one running
    a point for longer than the TTL, is therefore never taken.
    """
    from repro.campaign.worker import CAMPAIGN_FILE

    if not directory.name.startswith(DRAIN_PREFIX) \
            or (directory / CAMPAIGN_FILE).exists():
        return False
    leases = directory / LEASES_DIR
    try:
        touched = max(path.stat().st_mtime for path in (directory, leases)
                      if path.exists())
    except (OSError, ValueError):
        return False
    if time.time() - touched <= ttl_s:
        return False
    host = socket.gethostname()
    for path in leases.glob(f"*{_SUFFIX}"):
        lease = LeaseBoard._read(path) or {}
        pid = lease.get("pid")
        if lease.get("host") == host and isinstance(pid, int) and pid > 0 \
                and _pid_alive(pid):
            return False
    return True


def campaign_ttl(directory: pathlib.Path) -> float:
    """The lease TTL a campaign directory's run table declares (the
    default when the table is missing or unreadable)."""
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.worker import CAMPAIGN_FILE

    try:
        return CampaignSpec.from_file(directory / CAMPAIGN_FILE).lease_ttl_s
    except (ConfigurationError, OSError, TypeError, ValueError):
        return DEFAULT_LEASE_TTL_S


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True
    return True

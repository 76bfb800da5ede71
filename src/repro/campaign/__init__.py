"""repro.campaign — factorial run tables over a work-stealing scheduler.

The sweep engine on top of :mod:`repro.exec`:

* :class:`~repro.campaign.spec.CampaignSpec` — a declarative factorial
  run table (workload × platform × config × rep, with axis
  constraints) that expands deterministically into content-addressed
  :class:`~repro.exec.spec.RunSpec` points;
* :class:`~repro.campaign.leases.LeaseBoard` — the atomic lease-file
  protocol through which any number of worker processes (local or on
  other hosts sharing the cache filesystem) claim, release, and steal
  points;
* :class:`~repro.campaign.worker.CampaignWorker` /
  :func:`~repro.campaign.worker.run_worker` — the drain loop;
* :func:`~repro.campaign.orchestrator.drain` — the local fan-out
  (forked workers plus the caller as ``w0``) behind both ``repro
  campaign run --workers N`` and ``repro run``/``sweep --jobs N``;
* :func:`~repro.campaign.orchestrator.run_campaign` — a campaign
  document's init, drain and manifest finalization;

Interrupted campaigns are resumable for free: completion state *is* the
exec cache plus the per-point record files, so re-running a campaign
only executes the missing points, and a second full run executes none.
"""

from repro.campaign.leases import (
    DEFAULT_LEASE_TTL_S,
    LeaseBoard,
    sweep_campaigns,
)
from repro.campaign.orchestrator import (
    CAMPAIGNS_SUBDIR,
    campaign_dir_for,
    drain,
    finalize,
    init_campaign,
    load_records,
    result_fingerprint,
    run_campaign,
    status,
)
from repro.campaign.spec import (
    KIND_PLATFORMS,
    CampaignPoint,
    CampaignSpec,
    worker_order,
)
from repro.campaign.worker import (
    CAMPAIGN_FILE,
    MANIFEST_FILE,
    CampaignWorker,
    WorkerReport,
    run_worker,
)

__all__ = [
    "CAMPAIGNS_SUBDIR",
    "CAMPAIGN_FILE",
    "CampaignPoint",
    "CampaignSpec",
    "CampaignWorker",
    "DEFAULT_LEASE_TTL_S",
    "KIND_PLATFORMS",
    "LeaseBoard",
    "MANIFEST_FILE",
    "WorkerReport",
    "campaign_dir_for",
    "drain",
    "finalize",
    "init_campaign",
    "load_records",
    "result_fingerprint",
    "run_campaign",
    "run_worker",
    "status",
    "sweep_campaigns",
    "worker_order",
]

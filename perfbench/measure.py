"""Pure helpers the benchmark measures with.

* :func:`tail_percentile` — the reporting rule for timings: a median plus
  the highest percentile that still has at least ten samples beyond it,
  together with the sample count.
* :class:`Tally` — attempted/failed accounting for points, queries,
  writes and result checks; ``failed_frac`` is ``failed / attempted``.
* :func:`digest` — a stable hash over simulated statistics, so a model
  change shows up as a digest change rather than as a timing drift.
* :func:`round_rates` and :func:`best_of_rate` — each round's
  operations per second, and the rate with every kind of operation at
  its fastest; both scale inputs to their mean size.
* :func:`quartile_spread` — run-to-run spread: interquartile distance
  as a share of the median.

Nothing here imports the simulator, so the tests run without it.
"""

import hashlib
import json
import math
import statistics
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Tail candidates in tenths of a percent, highest first (integer
#: arithmetic keeps the rank exact: 99.9% of 10000 is rank 9990).
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def _rank(n: int, permille: int) -> int:
    """1-based nearest rank of the ``permille``/10 percentile of ``n``."""
    return max(1, -(-n * permille // 1000))


def tail_percentile(samples: Iterable[float]
                    ) -> Tuple[Optional[float], Optional[float], int]:
    """``(percentile, value, n)`` for the highest candidate percentile
    with at least :data:`MIN_BEYOND` samples beyond it.

    Returns ``(None, None, n)`` when even the median has fewer than ten
    samples beyond it (fewer than 20 samples): such a tail is not
    reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = _rank(n, permille)
        if n - rank >= MIN_BEYOND:
            return permille / 10.0, ordered[rank - 1], n
    return None, None, n


def median(samples: Iterable[float]) -> float:
    values = list(samples)
    return statistics.median(values) if values else 0.0


class Tally:
    """Attempted and failed operations of one run.

    An operation that raises counts as one attempted, one failed; its
    error is printed to stderr so a failing run explains itself.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted: int, failed: int = 0,
            why: Optional[str] = None) -> None:
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(f"bad tally: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed
        if failed and why:
            self.note(why)

    def note(self, why: str) -> None:
        self.errors.append(why)
        print(f"[perfbench] FAILED: {why}", file=sys.stderr)

    @contextmanager
    def guarded(self, what: str):
        """Count an exception escaping the block as one failed op."""
        try:
            yield
        except Exception as exc:  # the benchmark must finish and report
            self.add(1, 1, f"{what}: {type(exc).__name__}: {exc}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _canonical(value: Any) -> Any:
    """JSON-ready copy with floats cut to 10 significant digits, so the
    digest ignores last-bit noise but not a real model change."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(parts: Dict[str, Any]) -> str:
    """16-hex-digit SHA-256 over the canonical JSON of ``parts``."""
    text = json.dumps(_canonical(parts), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


Sample = Tuple[str, float, float, int]


def _mean_work(rounds: Sequence[Sequence[Sample]]
               ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Mean units and mean operations of each slot over the rounds."""
    units: Dict[str, list] = {}
    ops: Dict[str, list] = {}
    for samples in rounds:
        for slot, seconds, n_units, n_ops in samples:
            if n_units > 0 and seconds > 0:
                units.setdefault(slot, []).append(n_units)
                ops.setdefault(slot, []).append(n_ops)
    return ({s: statistics.mean(v) for s, v in units.items()},
            {s: statistics.mean(v) for s, v in ops.items()})


def round_rates(rounds: Sequence[Sequence[Sample]]) -> List[float]:
    """Operations per second of each round, from its
    ``(slot, seconds, units, ops)`` samples.

    A slot is one kind of operation (a point type, or a platform's
    loadtest) seen once per round; ``units`` measures the work it did
    (served queries, or simulated warp instructions when inputs vary in
    size).  Each round's samples are scaled to their slot's mean units
    over the run, so rounds on larger or smaller inputs stay comparable:
    a round's rate is the rate it achieved on an input of mean size.
    """
    mean_units, mean_ops = _mean_work(rounds)
    rates = []
    for samples in rounds:
        seconds = ops = 0.0
        for slot, sec, n_units, _ in samples:
            if n_units > 0 and sec > 0:
                seconds += sec * mean_units[slot] / n_units
                ops += mean_ops[slot]
        if seconds > 0:
            rates.append(ops / seconds)
    return rates


def best_of_rate(samples: Iterable[Sample]) -> float:
    """Operations per second with each slot at its best seconds per
    unit of work over the run (see :func:`round_rates` for slots and
    units), times its mean units per round.

    This is the rate of a round in which every operation ran at its
    fastest, which no single round need have achieved.  Other tenants
    of a shared host only ever slow an operation, so it is steadier
    from run to run than the median of :func:`round_rates`; but a
    slowdown that spares any one round of a slot does not move it.
    """
    samples = list(samples)
    mean_units, mean_ops = _mean_work([samples])
    best: Dict[str, float] = {}
    for slot, seconds, n_units, _ in samples:
        if n_units > 0 and seconds > 0:
            best[slot] = min(best.get(slot, math.inf), seconds / n_units)
    if not best:
        return 0.0
    seconds = sum(best[s] * mean_units[s] for s in best)
    return sum(mean_ops[s] for s in best) / seconds


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf

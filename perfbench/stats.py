"""Sample statistics and failure accounting for the repo benchmark.

Every timing is reported as a median plus a *tail*: the highest
percentile on :data:`TAIL_LADDER` that still has at least
:data:`MIN_BEYOND` samples beyond it, so a tail is never an extrapolation
from two or three slow requests.  Percentiles use the nearest-rank rule.

A request that failed — raised, was refused (429), found the service
unavailable (503), timed out, or returned a page that failed the
correctness check — counts as slower than any answer: it misses every
latency limit and pushes the tail, it never silently drops out of the
sample.  Its latency is the ledger's ``failure_latency`` (the length of
the timed window), so a percentile that lands on a failure still prints
as a number.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

#: Candidate tail percentiles, highest first.  The rungs are far apart
#: on purpose: a closed-loop run's sample count moves with the
#: program's speed, and a tail that switched percentile whenever a
#: change made the program faster would read as a regression.  Between
#: 200 and 10000 samples the tail is p95; an open-loop run's count is
#: fixed by its rate.
TAIL_LADDER = (99.9, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile for it to count as the tail.
MIN_BEYOND = 10

OK = "ok"
ERROR = "error"
REFUSED = "refused"
UNAVAILABLE = "unavailable"
TIMEOUT = "timeout"
MISMATCH = "mismatch"
STATUSES = (OK, ERROR, REFUSED, UNAVAILABLE, TIMEOUT, MISMATCH)


def _rank(count: int, percentile: float) -> int:
    """1-based nearest rank; rounded first so 99.9% of 10000 is 9990."""
    return max(math.ceil(round(percentile * count / 100.0, 9)), 1)


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), percentile) - 1]


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank
    ``percentile``."""
    return count - _rank(count, percentile)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with :data:`MIN_BEYOND` samples
    beyond it; None when even the median has fewer."""
    for percentile in TAIL_LADDER:
        if samples_beyond(count, percentile) >= MIN_BEYOND:
            return percentile
    return None


@dataclass(frozen=True)
class Summary:
    """Median and tail of one sample, with the rule's bookkeeping."""

    count: int
    p50: float
    tail: float
    #: The percentile the tail reports; 100.0 (the maximum) when the
    #: sample is too small for any ladder percentile.
    tail_percentile: float
    beyond_tail: int

    def as_dict(self, scale: float = 1.0) -> dict:
        return {"count": self.count, "p50": self.p50 * scale,
                "tail": self.tail * scale,
                "tail_percentile": self.tail_percentile,
                "samples_beyond_tail": self.beyond_tail}


def summarize(values: Iterable[float]) -> Summary:
    """Median and tail of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot summarize an empty sample")
    percentile = tail_percentile(len(ordered))
    if percentile is None:
        return Summary(len(ordered), nearest_rank(ordered, 50.0),
                       ordered[-1], 100.0, 0)
    return Summary(len(ordered), nearest_rank(ordered, 50.0),
                   nearest_rank(ordered, percentile), percentile,
                   samples_beyond(len(ordered), percentile))


@dataclass
class Request:
    """One attempted search: what was asked, how long, how it ended."""

    key: Hashable
    started: float
    latency: float
    status: str = OK

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown request status {self.status!r}")


@dataclass
class Ledger:
    """Every search a run attempted, in order.

    Latencies are kept raw; :meth:`summary` counts a failure as
    ``failure_latency``.  Correctness checks run after the timed window and
    call :meth:`mark_mismatch` for the keys whose pages were wrong.
    """

    slo_seconds: float
    #: What a failed request counts as in the latency percentiles.
    failure_latency: float = math.inf
    requests: list[Request] = field(default_factory=list)

    def record(self, key: Hashable, started: float, latency: float,
               status: str = OK) -> None:
        self.requests.append(Request(key, started, latency, status))

    def mark_mismatch(self, keys: Iterable[Hashable]) -> int:
        """Fail every answered request for one of ``keys``; returns how
        many were marked."""
        bad = set(keys)
        marked = 0
        for request in self.requests:
            if request.status == OK and request.key in bad:
                request.status = MISMATCH
                marked += 1
        return marked

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if r.status != OK)

    def counts(self) -> dict[str, int]:
        tally = Counter(r.status for r in self.requests)
        return {status: tally.get(status, 0) for status in STATUSES}

    def effective_latencies(self) -> list[float]:
        return [r.latency if r.status == OK else self.failure_latency
                for r in self.requests]

    def within_slo_frac(self) -> float:
        if not self.requests:
            return 0.0
        good = sum(1 for r in self.requests
                   if r.status == OK and r.latency <= self.slo_seconds)
        return good / len(self.requests)

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.requests else 0.0

    def summary(self) -> Summary:
        return summarize(self.effective_latencies())


def ledger_record(ledger: Ledger) -> dict:
    """The ledger as plain data: counts, summary and every raw sample."""
    summary = ledger.summary()
    return {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed_frac(),
        "statuses": ledger.counts(),
        "slo_seconds": ledger.slo_seconds,
        "within_slo_frac": ledger.within_slo_frac(),
        "latency_ms": summary.as_dict(scale=1000.0),
        "samples_ms": [r.latency * 1000.0 for r in ledger.requests],
        "failures": [[i, r.status] for i, r in enumerate(ledger.requests)
                     if r.status != OK],
    }


def run_is_correct(ledger: Ledger) -> bool:
    """No page failed its check and no search raised.  Refusals and
    timeouts are load outcomes, counted as failures but not as wrong
    output."""
    counts = ledger.counts()
    return counts[MISMATCH] == 0 and counts[ERROR] == 0

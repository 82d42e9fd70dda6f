"""The tail-percentile rule and failure accounting."""

import math

import pytest

from perfbench.http_broad import classify
from perfbench.stats import (ERROR, MISMATCH, OK, REFUSED, TIMEOUT,
                             UNAVAILABLE, Ledger, nearest_rank,
                             run_is_correct, samples_beyond, summarize,
                             tail_percentile)
from repro.errors import ServiceError


@pytest.mark.parametrize("count, expected", [
    (9, None),        # even the median has only 4 beyond
    (19, None),
    (20, 50.0),       # exactly 10 beyond the median
    (39, 50.0),
    (40, 75.0),
    (99, 75.0),
    (100, 90.0),      # p90 leaves 10, p95 only 5
    (199, 90.0),      # p95 would leave 9
    (200, 95.0),
    (9999, 95.0),     # p99.9 would leave 9
    (10000, 99.9),
])
def test_tail_is_highest_rung_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50.0) == 50
    assert nearest_rank(values, 90.0) == 90
    assert nearest_rank(values, 95.0) == 95
    assert nearest_rank([7.0], 99.9) == 7.0


def test_summary_reports_percentile_and_count():
    summary = summarize(float(i) for i in range(200, 0, -1))
    assert summary.count == 200
    assert summary.p50 == 100.0
    assert summary.tail_percentile == 95.0
    assert summary.tail == 190.0
    assert summary.beyond_tail == 10


def test_small_sample_tail_is_the_maximum():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary.tail_percentile == 100.0
    assert summary.tail == 3.0
    assert summary.beyond_tail == 0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def _ledger(statuses, latency=0.01):
    ledger = Ledger(slo_seconds=0.25, failure_latency=12.0)
    for i, status in enumerate(statuses):
        ledger.record(("q", i), float(i), latency, status)
    return ledger


def test_every_failure_kind_counts_against_attempted():
    ledger = _ledger([OK, ERROR, REFUSED, UNAVAILABLE, TIMEOUT, OK])
    assert ledger.attempted == 6
    assert ledger.failed == 4
    assert ledger.failed_frac() == pytest.approx(4 / 6)
    assert ledger.counts() == {OK: 2, ERROR: 1, REFUSED: 1,
                               UNAVAILABLE: 1, TIMEOUT: 1, MISMATCH: 0}


def test_failures_miss_the_slo_and_count_as_window_long():
    ledger = _ledger([OK, REFUSED, OK, OK])
    assert ledger.within_slo_frac() == pytest.approx(3 / 4)
    assert ledger.effective_latencies() == [0.01, 12.0, 0.01, 0.01]
    slow = _ledger([OK, OK], latency=0.3)
    assert slow.within_slo_frac() == 0.0


def test_mismatched_pages_fail_every_request_for_that_key():
    ledger = Ledger(slo_seconds=0.25)
    for key in ("a", "b", "a", "c", "a"):
        ledger.record(key, 0.0, 0.01)
    ledger.requests[4].status = TIMEOUT
    assert ledger.mark_mismatch({"a"}) == 2
    assert [r.status for r in ledger.requests] == \
        [MISMATCH, OK, MISMATCH, OK, TIMEOUT]
    assert ledger.failed == 3
    assert math.isinf(ledger.effective_latencies()[0])


def test_correctness_ignores_load_outcomes_but_not_wrong_pages():
    assert run_is_correct(_ledger([OK, REFUSED, TIMEOUT, UNAVAILABLE]))
    assert not run_is_correct(_ledger([OK, MISMATCH]))
    assert not run_is_correct(_ledger([OK, ERROR]))


def test_unknown_status_is_rejected():
    with pytest.raises(ValueError):
        _ledger(["lost"])


def test_http_errors_are_classified():
    assert classify(ServiceError("busy", status=429)) == REFUSED
    assert classify(ServiceError("down", status=503)) == UNAVAILABLE
    assert classify(ServiceError("bad", status=500)) == ERROR
    try:
        try:
            raise TimeoutError("timed out")
        except TimeoutError as exc:
            raise ServiceError("cannot reach server") from exc
    except ServiceError as exc:
        assert classify(exc) == TIMEOUT
    assert classify(ValueError("parse")) == ERROR

"""The reference-speed scaling of timings (perfbench.speed)."""

import time

import pytest

from perfbench import speed
from perfbench.common import ROOT
from perfbench.metrics import closed_loop_qps, end_to_end_metrics
from perfbench.stats import OK, Ledger

REF = speed.REFERENCE_KERNEL_MS / 1000.0


def test_factor_is_reference_over_median_kernel_time():
    assert speed.factor([(0.0, REF)]) == pytest.approx(1.0)
    # Twice as slow as the reference: timings are halved.
    samples = [(0.0, 2 * REF), (1.0, 2 * REF), (2.0, 9 * REF)]
    assert speed.factor(samples) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed.factor([])


def test_local_factors_use_the_samples_around_each_span():
    slow = [(t / 10, 2 * REF) for t in range(0, 50)]       # 0.0 .. 4.9 s
    fast = [(5 + t / 10, REF) for t in range(0, 50)]       # 5.0 .. 9.9 s
    factors = speed.local_factors([(1.0, 1.1), (8.0, 8.2)], fast + slow)
    assert factors == pytest.approx([0.5, 1.0])


def test_local_factors_widen_until_enough_samples():
    samples = [(t, REF * (1 + t)) for t in (0.0, 3.0, 6.0, 9.0, 12.0)]
    (only,) = speed.local_factors([(6.0, 6.0)], samples)
    # 0.25 s holds one sample; the span doubles until it holds all five.
    assert only == pytest.approx(1 / 7)
    with pytest.raises(ValueError):
        speed.local_factors([(0.0, 1.0)], samples[:4])


def test_setup_clock_keeps_the_kernel_out_of_the_time(monkeypatch):
    def slow_kernel():
        time.sleep(0.02)
        return 2 * REF

    monkeypatch.setattr(speed, "kernel", slow_kernel)
    with speed.SetupClock() as clock:
        for _ in range(3 * speed.SETUP_TICK):
            clock.tick()
    assert len(clock.gauge.samples) == 5
    assert clock.raw < 0.02
    assert clock.scaled() == pytest.approx(clock.raw * 0.5)


def test_end_to_end_timings_are_scaled_per_search():
    ledger = Ledger(slo_seconds=0.25)
    for i, latency in enumerate((0.010, 0.020, 0.040)):
        ledger.record(i, float(i), latency, OK)
    scales = [1.0, 0.5, 0.25]
    metrics = end_to_end_metrics([2.0, 1.0, 3.0], ledger, scales,
                                 closed_loop_qps(ledger, scales),
                                 1.0, 100.0, 10.0)
    assert metrics["search_p50_ms"] == pytest.approx(10.0)
    assert metrics["search_qps"] == pytest.approx(3 / 0.030)
    assert metrics["setup_s"] == 2.0
    # The latency limit applies to measured, not scaled, time.
    assert metrics["within_slo_frac"] == 1.0


def test_calibrator_samples_until_stopped():
    server_cpu, _ = speed.cpus()
    calibrator = speed.Calibrator(server_cpu, ROOT)
    try:
        time.sleep(0.5)
        samples = calibrator.stop()
    finally:
        calibrator.kill()
    assert calibrator.process.returncode == 0
    assert samples and all(cpu > 0 for _, cpu in samples)
    starts = [begun for begun, _ in samples]
    assert starts == sorted(starts)

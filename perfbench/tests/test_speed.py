"""The speedometer probes a phase, accounts its own time and cleans up."""

import signal
import time

import pytest
import workloads
from workloads import PROBE_REF_S, Speedometer


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probes_are_timed_and_the_timer_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    meter = Speedometer(True)
    started = time.perf_counter()
    with meter:
        _busy(4 * workloads.PROBE_INTERVAL_S)
    elapsed = time.perf_counter() - started
    assert len(meter.samples) >= 2
    assert sum(meter.samples) <= meter.spent < elapsed
    assert meter.speed() == pytest.approx(
        sum(PROBE_REF_S / sample for sample in meter.samples) / len(meter.samples)
    )
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_an_inactive_meter_takes_no_probe():
    meter = Speedometer(False)
    with meter:
        _busy(2 * workloads.PROBE_INTERVAL_S)
    assert meter.samples == [] and meter.spent == 0.0
    assert meter.speed() is None

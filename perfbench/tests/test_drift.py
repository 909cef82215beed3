import signal
import time

import pytest

import drift


def test_correct_scales_by_mean_slice():
    # slices of 0.2 ms and 0.4 ms against a nominal 0.15 ms: the host ran
    # 2x slow, so 0.3 s of wall time is 0.15 s at nominal speed
    assert drift.correct(0.3, [0.0002, 0.0004], 0.00015) == pytest.approx(0.15)
    assert drift.correct(0.3, [0.00015], 0.00015) == pytest.approx(0.3)


def test_segments_use_their_slices_and_units_their_neighbours():
    # (wall, CPU) slices; in segment 1 the CPU ones read a slower host
    slices = iter([(0.002, 0.002),     # 0: opens the run
                   (0.002, 0.002),     # 1: between the units of segment 0
                   (0.002, 0.002),     # 2: closes segment 0
                   (0.003, 0.004),     # 3: between the units of segment 1
                   (0.003, 0.004)])    # 4: closes segment 1
    clock = drift.DriftClock(0.002, run_slice=lambda: next(slices))
    for raw in (0.25, 0.5):
        clock.begin()
        clock.unit(raw / 2)
        clock.slice()
        clock.unit(raw / 2)
        clock.end()
    clock.segments = [0.25, 0.5]       # replace the measured wall times
    assert clock.segment_slices == [(0, 2), (2, 4)]
    assert clock.unit_slices == [(0, 1), (1, 2), (2, 3), (3, 4)]
    s = clock.summary()
    assert s["raw_s"] == pytest.approx(0.75)
    # segment 1 spans slices 2..4: mean wall 8/3 ms against nominal 2 ms
    assert s["corrected_s"] == pytest.approx(0.25 + 0.5 * 2 / (8 / 3))
    # units use CPU time: the first unit of segment 1 sits between slices
    # 2 and 3 (mean 3 ms), the second between 3 and 4 (mean 4 ms)
    assert s["unit_corrected_s"] == pytest.approx(
        [0.125, 0.125, 0.25 * 2 / 3, 0.25 * 2 / 4])
    assert s["kernel_slices_s"][3] == [0.003, 0.004]


def test_tick_excludes_its_slice_from_the_segment(monkeypatch):
    clock = drift.DriftClock(0.001, run_slice=lambda: (0.05, 0.05))
    monkeypatch.setattr(drift, "SLICE_PERIOD_S", 0.0)
    clock.begin()
    clock.tick()
    assert clock._excluded == 0.05 and len(clock.slices) == 2


def test_percentile_is_nearest_rank():
    xs = list(range(1, 41))
    assert drift.percentile(xs, 75.0) == 30      # 10 samples beyond
    assert drift.percentile(xs, 50.0) == 20
    assert drift.percentile([7.0], 99.9) == 7.0


def test_timer_slices_sample_during_a_busy_stretch():
    previous = signal.getsignal(signal.SIGALRM)
    with drift.timer_slices() as slices:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * drift.SLICE_PERIOD_S:
            pass
    assert len(slices) >= 3
    assert all(wall > 0 and cpu > 0 for wall, cpu in slices)
    assert signal.getsignal(signal.SIGALRM) is previous

"""Tests of the benchmark's own statistics and bookkeeping.

    python3 -m pytest cfbench -q
"""

import signal
import statistics
import time

import pytest

import run
import stats
import ticks


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(reversed(xs), 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    assert stats.beyond(110, 90) == 11
    xs = list(range(100))
    p90 = stats.percentile(xs, 90)
    assert sum(x > p90 for x in xs) == stats.beyond(len(xs), 90)


def test_tail_percentile_is_highest_with_ten_beyond():
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(60) == 80
    assert stats.tail_percentile(15) is None
    for n in range(1, 1500):
        pct = stats.tail_percentile(n)
        higher = [c for c in stats.TAIL_CANDIDATES if pct is None or c > pct]
        assert all(stats.beyond(n, c) < stats.MIN_BEYOND for c in higher)
        if pct is not None:
            assert stats.beyond(n, pct) >= stats.MIN_BEYOND


def test_ref_units_divide_by_mean_of_surrounding_probes():
    assert stats.ref_units([2.0], [1.0], [3.0]) == [1.0]
    assert stats.ref_units([0.3, 0.6], [0.01, 0.02], [0.01, 0.02]) == \
        pytest.approx([30.0, 30.0])


def test_ref_units_cancel_a_uniform_drift():
    task = [0.21, 0.25, 0.23]
    before = [0.011, 0.012, 0.010]
    after = [0.012, 0.010, 0.011]
    base = stats.ref_units(task, before, after)
    for slowdown in (0.7, 1.3, 1.55):
        scaled = stats.ref_units([t * slowdown for t in task],
                                 [b * slowdown for b in before],
                                 [a * slowdown for a in after])
        assert scaled == pytest.approx(base, rel=1e-12)


def test_ref_units_reject_bad_probes():
    with pytest.raises(ValueError):
        stats.ref_units([1.0, 2.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        stats.ref_units([1.0], [0.0], [0.0])


def test_ticks_split_divides_each_gap_by_its_ticks():
    # gaps [1, 3] between ticks of 1 s and [4, 6] between 1 s and 2 s
    ticks = [(0.0, 1.0), (3.0, 1.0), (6.0, 2.0)]
    nominal = stats.TICK_NOMINAL_S
    raw, nom = stats.ticks_split(ticks, 0.0, 10.0)
    assert raw == 4.0
    assert nom == pytest.approx(nominal * (2.0 + 2.0 / 1.5))
    raw, nom = stats.ticks_split(ticks, 2.0, 5.0)
    assert raw == 2.0
    assert nom == pytest.approx(nominal * (1.0 + 1.0 / 1.5))
    assert stats.ticks_split(ticks[:1], 0.0, 10.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        stats.ticks_split([(0.0, 0.0), (1.0, 0.0)], 0.0, 1.0)


def test_ticks_split_cancels_a_uniform_drift():
    ticks = [(0.0, 3e-4), (0.02, 2.8e-4), (0.05, 3.1e-4), (0.07, 3e-4)]
    base = stats.ticks_split(ticks, 0.0, 0.07)[1]
    for slowdown in (0.7, 1.3, 1.55):
        scaled = [(t * slowdown, d * slowdown) for t, d in ticks]
        got = stats.ticks_split(scaled, 0.0, 0.07 * slowdown)[1]
        assert got == pytest.approx(base, rel=1e-12)


def test_sampler_ticks_through_busy_work():
    sampler = ticks.Sampler()
    t = time.perf_counter()
    while time.perf_counter() - t < 5 * ticks.INTERVAL_S:
        pass
    got = sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert len(got) >= 4
    for (t0, d0), (t1, _) in zip(got, got[1:]):
        assert d0 > 0.0 and t0 + d0 <= t1


def test_tasks_per_kref():
    assert stats.tasks_per_kref([10.0, 10.0, 20.0, 40.0]) == 50.0
    refs = [12.5] * 8
    assert stats.tasks_per_kref(refs) == pytest.approx(1000.0 / 12.5)
    with pytest.raises(ValueError):
        stats.tasks_per_kref([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 2.5, 3.0, 4.0, 4.5, 5.0, 7.0, 8.0, 9.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q1, q2, q3, (q3 - q1) / q2)


def test_run_digest_depends_only_on_the_first_tasks():
    digests = [f"d{i}" for i in range(20)]
    head = digests[:run.DIGEST_TASKS]
    assert run.run_digest(digests) == run.run_digest(head)
    assert run.run_digest(digests) != run.run_digest(["x"] + digests[1:])
    failed = list(head)
    failed[3] = None
    assert run.run_digest(failed) != run.run_digest(head)


def test_scipy_import_time_sums_scipy_self_times():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.linalg",
        "import time:      2000 |       2500 |     scipy._lib",
        "import time:      3000 |       5500 |   scipy.integrate",
        "import time:        50 |       5550 | contfrob.moduli",
        "some other stderr line"])
    assert run.scipy_import_s(log) == pytest.approx(0.005)


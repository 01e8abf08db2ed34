"""Percentiles, the median over windows, and what calibration cancels."""

import math

import pytest

from spine.harness import CAL_UNITS_PER_KERNEL, Windows, percentile, summarize, tail_q


def test_percentile_hand_computed():
    data = [10, 20, 30, 40, 50]
    assert percentile(data, 0) == 10
    assert percentile(data, 50) == 30
    assert percentile(data, 100) == 50
    # position (5 - 1) * 0.95 = 3.8 -> 40 + 0.8 * (50 - 40)
    assert percentile(data, 95) == pytest.approx(48.0)
    assert percentile([7], 95) == 7


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_q(1000) == 95.0
    assert tail_q(200) == 95.0
    assert tail_q(100) == pytest.approx(90.0)  # 10 of 100 lie beyond p90
    assert tail_q(40) == pytest.approx(75.0)
    with pytest.raises(ValueError):
        tail_q(10)


def _window(windows, items, per_item_ns, cal_ns, latencies):
    windows.add(items, items * per_item_ns, cal_ns, cal_ns, list(latencies))


def test_median_over_windows_ignores_a_noisy_window():
    windows = Windows()
    lat = list(range(100, 300))  # 200 samples: p50 = 199.5, p95 = 289.05
    for per_item in (1000, 1000, 9000, 1000, 1000):  # one window hit by noise
        _window(windows, 500, per_item, 3_000_000, lat)
    metrics = summarize(windows)
    unit = 3_000_000 / CAL_UNITS_PER_KERNEL
    assert metrics["item_cost_cal"] == pytest.approx(1000 / unit)
    assert metrics["item_latency_p50_cal"] == pytest.approx(199.5 / unit)
    assert metrics["item_latency_p95_cal"] == pytest.approx(289.05 / unit)
    assert metrics["bench.windows"] == 5
    assert metrics["bench.samples"] == 1000


def test_cost_only_windows_report_nan_latency_not_a_number_from_nowhere():
    windows = Windows()
    _window(windows, 40, 5_000_000, 3_000_000, [])
    assert math.isnan(summarize(windows)["item_latency_p50_cal"])


def test_empty_window_is_dropped():
    windows = Windows()
    windows.add(0, 1000, 1, 1, [])
    assert len(windows) == 0


@pytest.mark.parametrize("slow", [[1.5] * 6, [1.0, 1.5, 1.0, 1.5, 1.5, 1.0]])
def test_calibration_cancels_a_slowdown_of_kernel_and_workload(slow):
    """A host running 1.5x slower slows the calibration kernel and the
    workload alike; the normalised metrics must not move."""
    base_lat = [2_000 + 10 * i for i in range(400)]

    def run(factors):
        windows = Windows()
        for f in factors:
            _window(windows, 4_000, int(20_000 * f), int(3_200_000 * f),
                    [int(v * f) for v in base_lat])
        return summarize(windows)

    quiet, noisy = run([1.0] * 6), run(slow)
    for name in ("item_cost_cal", "item_latency_p50_cal", "item_latency_p95_cal"):
        assert noisy[name] == pytest.approx(quiet[name], rel=1e-3)
    # ... while the raw numbers do move with the host
    if all(f == 1.5 for f in slow):
        assert noisy["bench.item_cost_us"] == pytest.approx(
            1.5 * quiet["bench.item_cost_us"], rel=1e-3
        )

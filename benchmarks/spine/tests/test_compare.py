"""``--compare``: regression, improvement, and the unresolved case."""

import pytest

from spine import compare


def test_classify_lower_is_better():
    assert compare.classify(100.0, 106.0, 0.07, "lower") == "within"
    assert compare.classify(100.0, 108.0, 0.07, "lower") == "worse"
    assert compare.classify(100.0, 92.0, 0.07, "lower") == "better"
    assert compare.classify(100.0, 94.0, 0.07, "lower") == "within"


def test_classify_higher_is_better():
    assert compare.classify(100.0, 92.0, 0.07, "higher") == "worse"
    assert compare.classify(100.0, 108.0, 0.07, "higher") == "better"


def test_spread_wider_than_the_bound_is_unresolved():
    # even a 30 % worsening cannot be called when same-code runs spread 9 %
    assert compare.classify(100.0, 130.0, 0.07, "lower", spread=0.09) == "unresolved"
    assert compare.classify(100.0, 130.0, 0.07, "lower", spread=0.02) == "worse"


def test_spread_of_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4): q1 = 11.75, q3 = 17.25, median 14.5
    assert compare.spread_of(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert compare.spread_of([3.0]) == 0.0


def _doc(cost, p50, spread=None, layer=None):
    entry = {"end_to_end": {"metrics": {"item_cost_cal": cost,
                                        "item_latency_p50_cal": p50}}}
    if spread:
        entry["spread"] = spread
    if layer:
        entry["per_layer"] = {"metrics": layer}
    return {"workloads": {"local_cycle": entry}}


def test_compare_docs_rows():
    old = _doc(6.0, 5.0, spread={"item_latency_p50_cal": 0.3},  # over any bound
               layer={"core.kernel.put_ns": 1500.0})
    new = _doc(7.0, 9.0, layer={"core.kernel.put_ns": 900.0})
    rows = {(r.metric): r for r in compare.compare_docs(old, new)}
    assert rows["item_cost_cal"].verdict == "worse"
    assert rows["item_cost_cal"].ratio == pytest.approx(7.0 / 6.0)
    assert rows["item_latency_p50_cal"].verdict == "unresolved"
    layer = rows["core.kernel.put_ns"]
    assert layer.verdict == "listed" and layer.bound is None  # never gated
    text = compare.render(list(rows.values()))
    assert "worse" in text and "unresolved" in text and "listed" in text


def test_improvement_row():
    rows = compare.compare_docs(_doc(6.0, 5.0), _doc(5.0, 5.1))
    assert [r.verdict for r in rows] == ["better", "within"]

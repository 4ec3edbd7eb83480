import math

import pytest

import stats


@pytest.mark.parametrize("q, enough", [(50, 20), (95, 182), (99, 902)])
def test_percentile_needs_ten_samples_beyond_it(q, enough):
    assert stats.percentile(range(enough), q) is not None
    assert stats.percentile(range(enough - 1), q) is None


def test_percentile_reports_with_fewer_when_asked():
    assert stats.percentile([3.0, 1.0, 2.0], 50, min_beyond=0) == 2.0
    assert stats.percentile([], 50, min_beyond=0) is None


def test_percentile_interpolates_like_numpy():
    xs = [float(x * x) for x in range(300)]
    assert stats.percentile(xs, 95) == pytest.approx(
        sorted(xs)[284] + 0.05 * (sorted(xs)[285] - sorted(xs)[284])
    )


def test_percentile_rejects_out_of_range_rank():
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 50, 100)


def test_quartile_spread():
    assert stats.quartile_spread([5.0]) == 0.0
    assert stats.quartile_spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert math.isinf(stats.quartile_spread([-1.0, 0.0, 1.0]))

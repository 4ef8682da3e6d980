import pytest

from bench import stats


def test_p99_needs_ten_samples_beyond():
    samples = list(range(1, 1001))
    p99 = stats.percentile(samples, 99)
    assert (p99.value, p99.samples, p99.beyond) == (990, 1000, 10)
    assert stats.percentile(samples[:-1], 99) is None


def test_p90_needs_one_hundred_samples():
    assert stats.percentile(list(range(100)), 90).beyond == 10
    assert stats.percentile(list(range(99)), 90) is None


@pytest.mark.parametrize("count", [1, 2, 7])
def test_median_is_exempt_from_the_rule(count):
    result = stats.percentile([5.0] * count, 50)
    assert result.value == 5.0 and result.samples == count


def test_samples_beyond_is_order_free():
    assert stats.percentile([3, 1, 2] * 400, 99).value == 3
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(1999, 99) == 19

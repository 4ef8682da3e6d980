import pytest

from bench import speed


def test_timeline_scales_each_window_by_the_speed_of_its_bins():
    slow, fast = 2 * speed.NOMINAL_S, speed.NOMINAL_S / 2
    bin_s = speed.BIN_S
    samples = [(0.1 * bin_s, slow)] * 9 + [(0.2 * bin_s, 100.0)]  # one stall, trimmed
    samples += [(1.5 * bin_s, fast)] * 10
    timeline = speed.Timeline(samples)
    assert timeline.duration(0.0, bin_s) == pytest.approx(0.5 * bin_s)
    assert timeline.duration(bin_s, 2 * bin_s) == pytest.approx(2.0 * bin_s)
    assert timeline.duration(0.5 * bin_s, 1.5 * bin_s) == pytest.approx(1.25 * bin_s)
    # bins without samples borrow their nearest neighbour's speed
    assert timeline.duration(9 * bin_s, 10 * bin_s) == pytest.approx(2.0 * bin_s)


def test_clock_excludes_sampler_time():
    with speed.SpeedReference() as reference:
        before = reference.clock()
        reference._tick(None, None)
        after = reference.clock()
    assert reference.samples and after - before < reference.samples[-1][1]

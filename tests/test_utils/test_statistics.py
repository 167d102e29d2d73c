"""Tests for counters, histograms, and summary statistics."""

import pytest

from repro.utils.statistics import Histogram, StatGroup, geometric_mean


class TestStatGroup:
    def test_add_and_get(self):
        stats = StatGroup("test")
        stats.add("hits")
        stats.add("hits", 4)
        assert stats.get("hits") == 5

    def test_unset_counter_is_zero(self):
        assert StatGroup("t").get("nothing") == 0

    def test_ratio(self):
        stats = StatGroup("t")
        stats.add("hits", 3)
        stats.add("total", 4)
        assert stats.ratio("hits", "total") == pytest.approx(0.75)

    def test_ratio_zero_denominator(self):
        assert StatGroup("t").ratio("a", "b") == 0.0

    def test_as_dict_sorted(self):
        stats = StatGroup("t")
        stats.add("zulu")
        stats.add("alpha")
        assert list(stats.as_dict()) == ["alpha", "zulu"]

    def test_merge(self):
        a, b = StatGroup("a"), StatGroup("b")
        a.add("x", 2)
        b.add("x", 3)
        b.add("y")
        a.merge(b)
        assert a.get("x") == 5
        assert a.get("y") == 1

    def test_reset(self):
        stats = StatGroup("t")
        stats.add("x", 10)
        stats.reset()
        assert stats.get("x") == 0

    def test_adding_zero_creates_the_key(self):
        stats = StatGroup("t")
        stats.add("quiet", 0)
        assert stats.as_dict() == {"quiet": 0}

    def test_reads_do_not_create_keys(self):
        stats = StatGroup("t")
        assert stats.get("missing") == 0
        assert stats.ratio("missing", "also_missing") == 0.0
        stats.add("present", 2)
        assert stats.ratio("missing", "present") == 0.0
        assert stats.as_dict() == {"present": 2}

    def test_merge_keeps_zero_valued_keys(self):
        a, b = StatGroup("a"), StatGroup("b")
        a.add("shared", 2)
        a.add("only_a", 0)
        b.add("shared", 3)
        b.add("only_b", 0)
        b.add("extra", 4)
        a.merge(b)
        assert a.as_dict() == {"extra": 4, "only_a": 0, "only_b": 0,
                               "shared": 5}


class TestHistogram:
    def test_mean_and_max(self):
        hist = Histogram()
        for value in (1, 2, 3):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)
        assert hist.maximum == 3

    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0

    def test_bucketing(self):
        hist = Histogram(bucket_width=10)
        for value in (0, 5, 10, 15, 25):
            hist.observe(value)
        assert hist.buckets() == {0: 2, 10: 2, 20: 1}

    def test_all_negative_maximum(self):
        # Regression: the maximum was seeded to 0, so an all-negative
        # population reported max 0 instead of its true maximum.
        hist = Histogram()
        for value in (-5, -9, -3):
            hist.observe(value)
        assert hist.maximum == -3

    def test_empty_maximum_is_zero(self):
        assert Histogram().maximum == 0

    def test_rejects_non_int(self):
        hist = Histogram()
        with pytest.raises(TypeError, match="expects an int"):
            hist.observe(1.5)
        with pytest.raises(TypeError, match="expects an int"):
            hist.observe("3")
        with pytest.raises(TypeError, match="expects an int"):
            hist.observe(True)
        assert hist.count == 0

    def test_summary(self):
        hist = Histogram(bucket_width=10)
        for value in (1, 2, 12):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(5.0)
        assert summary["maximum"] == 12
        assert summary["buckets"] == {"0": 2, "10": 1}


    def test_merge(self):
        left, right = Histogram(bucket_width=10), Histogram(bucket_width=10)
        for value in (3, 17, 41):
            left.observe(value)
        for value in (12, 58):
            right.observe(value)
        both = Histogram(bucket_width=10)
        for value in (3, 17, 41, 12, 58):
            both.observe(value)
        left.merge(right)
        assert left.summary() == both.summary()
        assert left.maximum == 58
        assert left.mean == pytest.approx(131 / 5)

    def test_merge_keeps_larger_maximum_and_empty_sides(self):
        hist = Histogram(bucket_width=10)
        hist.observe(-4)
        hist.merge(Histogram(bucket_width=10))
        assert hist.maximum == -4
        empty = Histogram(bucket_width=10)
        empty.merge(hist)
        assert empty.summary() == hist.summary()

    def test_merge_rejects_other_bucket_width(self):
        with pytest.raises(ValueError, match="bucket width"):
            Histogram(bucket_width=10).merge(Histogram(bucket_width=50))


class TestGeometricMean:
    def test_known(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

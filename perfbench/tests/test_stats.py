"""The benchmark's own arithmetic: percentiles, the beyond rule, the
open-loop schedule and metric names."""

import pytest

import stats


class TestPercentile:
    def test_nearest_rank_returns_observed_values(self):
        values = list(range(1, 11))
        assert stats.percentile(values, 50) == 5
        assert stats.percentile(values, 90) == 9
        assert stats.percentile(values, 91) == 10
        assert stats.percentile(values, 100) == 10
        assert stats.percentile(values, 10) == 1
        assert stats.percentile(values, 0.1) == 1

    def test_order_does_not_matter(self):
        assert stats.percentile([9, 1, 5, 3, 7], 50) == 5

    def test_single_sample(self):
        assert stats.percentile([4.2], 99) == 4.2

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1], 0)
        with pytest.raises(ValueError):
            stats.percentile([1], 101)


class TestBeyondRule:
    def test_counts_samples_above_the_percentile(self):
        assert stats.beyond(100, 90) == 10
        assert stats.beyond(99, 90) == 9
        assert stats.beyond(1000, 99) == 10
        assert stats.beyond(0, 50) == 0

    def test_trusted_needs_ten_beyond(self):
        assert stats.trusted(100, 90)
        assert not stats.trusted(99, 90)
        assert stats.trusted(1000, 99)
        assert not stats.trusted(999, 99)

    def test_sample_note_flags_untrusted_percentiles(self):
        assert stats.sample_note(100, 90) == "n=100"
        assert stats.sample_note(7) == "n=7"
        assert "untrusted" in stats.sample_note(99, 90)
        assert "untrusted" in stats.sample_note(999, 99)
        assert stats.sample_note(1000, 99) == "n=1000"

    def test_percentile_and_beyond_agree(self):
        values = list(range(250))
        for q in (50, 90, 95, 99):
            p = stats.percentile(values, q)
            assert sum(1 for v in values if v > p) == stats.beyond(len(values), q)


class TestOpenLoop:
    def test_due_times_are_fixed_by_rate(self):
        assert stats.due_times(10.0, 4.0, 3) == [10.0, 10.25, 10.5]
        assert stats.due_times(0.0, 1.0, 0) == []
        with pytest.raises(ValueError):
            stats.due_times(0.0, 0.0, 1)

    def test_lateness_is_never_negative(self):
        assert stats.lateness(due=1.0, sent=1.25) == pytest.approx(0.25)
        assert stats.lateness(due=1.0, sent=0.9) == 0.0

    def test_latency_is_timed_from_the_due_time(self):
        # Sent 30 ms late, answered 10 ms after sending: the user who
        # arrived on schedule waited 40 ms.
        due, sent, done = 2.0, 2.03, 2.04
        assert stats.open_loop_latency(due, done) == pytest.approx(0.04)
        assert stats.open_loop_latency(due, done) - stats.lateness(due, sent) == (
            pytest.approx(done - sent)
        )

    def test_growing_lag_is_detected(self):
        steady = [0.001] * 50
        growing = [i * 0.005 for i in range(50)]
        assert not stats.lag_is_growing(steady)
        assert stats.lag_is_growing(growing)
        assert not stats.lag_is_growing(growing[:5])  # too few to judge


class TestMetricNames:
    @pytest.mark.parametrize(
        "name",
        ["setup_s", "items_per_s", "serve.handler_s.protocol.run", "a-b.c_d", "9x"],
    )
    def test_valid(self, name):
        assert stats.check_metric_name(name) == name

    @pytest.mark.parametrize("name", ["", "a b", "a/b", "-lead", ".lead", "ms%"])
    def test_invalid(self, name):
        with pytest.raises(ValueError):
            stats.check_metric_name(name)

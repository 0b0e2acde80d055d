"""Tests for the metrics registry's snapshot algebra and rendering."""

from repro.obs.metrics import MetricsRegistry, render_table


class TestDiff:
    def test_only_changed_counters_in_delta(self):
        recorder = MetricsRegistry()
        recorder.incr("stable", 5)
        before = recorder.snapshot()
        recorder.incr("changed", 2)
        delta = recorder.diff(before)
        assert delta["counters"] == {"changed": 2}

    def test_timers_subtract_and_zero_deltas_drop(self):
        recorder = MetricsRegistry()
        recorder.add_time("phase1", 1.5)
        before = recorder.snapshot()
        recorder.add_time("phase1", 0.5)
        delta = recorder.diff(before)
        assert delta["timers"] == {"phase1": 0.5}

    def test_gauges_keep_high_water_mark(self):
        recorder = MetricsRegistry()
        recorder.gauge("peak", 10)
        before = recorder.snapshot()
        recorder.gauge("peak", 3)  # below the mark: no change recorded
        delta = recorder.diff(before)
        assert delta["gauges"] == {"peak": 10}

    def test_diff_of_unchanged_recorder_is_empty(self):
        recorder = MetricsRegistry()
        recorder.incr("n")
        recorder.add_time("t", 1.0)
        before = recorder.snapshot()
        delta = recorder.diff(before)
        assert delta["counters"] == {} and delta["timers"] == {}


class TestMerge:
    def test_merge_folds_worker_delta(self):
        driver = MetricsRegistry()
        driver.incr("pages.analyzed", 1)
        driver.gauge("peak", 5)
        driver.merge(
            {
                "counters": {"pages.analyzed": 2},
                "timers": {"phase1": 0.25},
                "gauges": {"peak": 9},
            }
        )
        snap = driver.snapshot()
        assert snap["counters"]["pages.analyzed"] == 3
        assert snap["timers"]["phase1"] == 0.25
        assert snap["gauges"]["peak"] == 9

    def test_merge_missing_sections_is_noop(self):
        driver = MetricsRegistry()
        driver.merge({})
        assert driver.snapshot() == {"counters": {}, "timers": {}, "gauges": {}}


class TestRenderTable:
    def test_empty_snapshot(self):
        table = render_table({"counters": {}, "timers": {}, "gauges": {}})
        assert "(no events recorded)" in table

    def test_sections_render_sorted(self):
        recorder = MetricsRegistry()
        recorder.incr("b.count", 2)
        recorder.incr("a.count", 1)
        recorder.add_time("phase", 0.125)
        recorder.gauge("peak", 7.0)
        table = render_table(recorder.snapshot())
        assert table.index("a.count") < table.index("b.count")
        assert "phase timings:" in table
        assert "gauges (high-water marks):" in table

"""Metrics registry: counters, gauges, histograms, rendering, threads."""

import re
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

# Prometheus text exposition: comment or `name{labels} value` lines.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    rf"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{{{_LABEL}(,{_LABEL})*\}})? -?[0-9eE+.]+(\+Inf)?$"
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safety_exact_total(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(2000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8 * 2000


class TestHistogram:
    def test_bucket_counts_are_le_semantics(self):
        h = Histogram(buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 2.0):
            h.observe(v)
        # cumulative: <=0.1 -> 2, <=1.0 -> 3, +Inf -> 4
        assert h.cumulative_counts() == [2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(2.65)

    def test_percentile_over_recent_ring(self):
        h = Histogram(window=4)
        for v in (100.0, 1.0, 2.0, 3.0, 4.0):  # 100 falls out of the ring
            h.observe(v)
        assert h.samples() == [1.0, 2.0, 3.0, 4.0]
        assert h.percentile(50) == 2.0
        assert h.percentile(100) == 4.0

    def test_merge_requires_same_buckets_and_folds(self):
        a, b = Histogram(buckets=(1.0,)), Histogram(buckets=(1.0,))
        a.observe(0.5)
        b.observe(2.0)
        a.merge(b)
        assert a.count == 2
        assert a.cumulative_counts() == [1, 2]
        with pytest.raises(ValueError):
            a.merge(Histogram(buckets=(5.0,)))

    def test_concurrent_observe_keeps_totals(self):
        h = Histogram()
        threads = [
            threading.Thread(target=lambda: [h.observe(0.01) for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000
        assert h.cumulative_counts()[-1] == 4000


class TestRegistry:
    def test_idempotent_registration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help")
        b = reg.counter("x_total")
        assert a is b

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_label_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError, match="labels"):
            reg.counter("x_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labelnames=("bad-label",))

    def test_labeled_family_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", labelnames=("route",))
        fam.labels(route="/a").inc()
        fam.labels("/a").inc()
        fam.labels(route="/b").inc(5)
        assert fam.labels(route="/a").value == 2
        assert fam.labels(route="/b").value == 5
        with pytest.raises(ValueError):
            fam.labels()  # missing label value

    def test_unlabeled_family_proxies_child(self):
        reg = MetricsRegistry()
        g = reg.gauge("temp")
        g.set(3.5)
        assert g.value == 3.5

    def test_labeled_family_refuses_proxy(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", labelnames=("route",))
        with pytest.raises(AttributeError):
            fam.inc()

    def test_collector_runs_at_render_and_snapshot(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("bridged")
        state = {"v": 0}
        handle = reg.register_collector(lambda: gauge.set(state["v"]))
        state["v"] = 7
        assert "bridged 7" in reg.render_prometheus()
        state["v"] = 9
        assert reg.snapshot()["bridged"]["value"] == 9
        reg.unregister_collector(handle)
        state["v"] = 11
        assert "bridged 9" in reg.render_prometheus()

    def test_broken_collector_does_not_break_scrape(self):
        reg = MetricsRegistry()
        reg.counter("ok_total").inc()
        reg.register_collector(lambda: 1 / 0)
        assert "ok_total 1" in reg.render_prometheus()

    def test_reset_zeroes_but_keeps_families(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc(3)
        reg.reset()
        assert reg.get("x_total") is not None
        assert c.value == 0


class TestPrometheusRendering:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests.", labelnames=("route",)).labels(
            route='GET /a"b'
        ).inc(3)
        reg.gauge("temp", "Temp.").set(-1.5)
        hist = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        return reg

    def test_every_line_is_valid_exposition(self):
        for line in self._registry().render_prometheus().strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            else:
                assert _SAMPLE_RE.match(line), f"bad exposition line: {line!r}"

    def test_histogram_has_cumulative_buckets_sum_count(self):
        text = self._registry().render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 0.55" in text
        assert "lat_seconds_count 2" in text

    def test_label_values_are_escaped(self):
        text = self._registry().render_prometheus()
        assert 'req_total{route="GET /a\\"b"} 3' in text

    def test_type_lines_present(self):
        text = self._registry().render_prometheus()
        assert "# TYPE req_total counter" in text
        assert "# TYPE temp gauge" in text
        assert "# TYPE lat_seconds histogram" in text

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_BUCKETS[0] <= 0.001 and DEFAULT_BUCKETS[-1] >= 10.0


class TestParsePrometheusText:
    def _render_parse(self):
        from repro.obs.metrics import parse_prometheus_text

        registry = MetricsRegistry()
        registry.counter("req_total", "requests", labelnames=("route",)).labels(
            route='GET /a"b'
        ).inc(3)
        registry.gauge("temp", "temperature").set(-1.5)
        registry.histogram("lat_seconds", "latency").observe(0.05)
        return parse_prometheus_text(registry.render_prometheus())

    def test_round_trips_own_rendering(self):
        samples = self._render_parse()
        by_name = {(s.name, tuple(sorted(s.labels.items()))): s for s in samples}
        counter = by_name[("req_total", (("route", 'GET /a"b'),))]
        assert counter.type == "counter" and counter.value == 3.0
        gauge = by_name[("temp", ())]
        assert gauge.type == "gauge" and gauge.value == -1.5

    def test_histogram_suffixes_resolve_to_family_type(self):
        samples = self._render_parse()
        hist = [s for s in samples if s.name.startswith("lat_seconds")]
        assert hist and all(s.type == "histogram" for s in hist)
        infinity = [s for s in hist if s.labels.get("le") == "+Inf"]
        assert infinity and infinity[0].value == 1.0

    def test_malformed_lines_are_skipped(self):
        from repro.obs.metrics import parse_prometheus_text

        text = "\n".join([
            "# HELP ok fine",
            "# TYPE ok counter",
            "ok 1",
            "not a metric line !!!",
            'dangling{unclosed="x 3',
        ])
        samples = parse_prometheus_text(text)
        assert [(s.name, s.value, s.type) for s in samples] == [("ok", 1.0, "counter")]

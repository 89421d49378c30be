"""Tests for the operator dashboard renderers (repro.obs.dashboard)."""

from repro import PixelsDB, ServiceLevel
from repro.obs.alerts import AlertEvent
from repro.obs.dashboard import (
    DashboardData,
    _sparkline_svg,
    _sparkline_text,
    render_dashboard_html,
    render_dashboard_text,
)


def _demo_session() -> PixelsDB:
    db = PixelsDB(observe=True, seed=7, scrape_interval_s=15.0)
    db.load_tpch("tpch", scale=0.01)
    db.submit("tpch", "SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE)
    db.submit(
        "tpch",
        "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
        ServiceLevel.RELAXED,
    )
    db.submit("tpch", "SELECT COUNT(*) FROM region", ServiceLevel.BEST_EFFORT)
    db.run_to_completion()
    return db


class TestDeterminism:
    def test_same_seed_renders_identical_bytes(self):
        first, second = _demo_session(), _demo_session()
        assert first.dashboard_html() == second.dashboard_html()
        assert first.dashboard_text() == second.dashboard_text()
        assert first.export("timeseries") == second.export("timeseries")
        assert first.export("slo") == second.export("slo")

    def test_render_is_a_pure_function_of_data(self):
        db = _demo_session()
        data = db.dashboard_data()
        assert render_dashboard_html(data) == render_dashboard_html(data)


class TestHtmlContent:
    def test_self_contained_document(self):
        html = _demo_session().dashboard_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "<svg" in html  # sparklines are inline
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_compliance_table_lists_all_levels(self):
        html = _demo_session().dashboard_html()
        for level in ("immediate", "relaxed", "best_effort"):
            assert f'<td class="l">{level}</td>' in html
        assert "100.00%" in html  # all deadlines met in the tiny session
        assert "billed $" in html

    def test_title_is_escaped(self):
        db = _demo_session()
        html = db.dashboard_html(title="<b>sneaky & unsafe</b>")
        assert "<b>sneaky" not in html
        assert "&lt;b&gt;sneaky &amp; unsafe&lt;/b&gt;" in html

    def test_alert_timeline_rendered_from_events(self):
        data = DashboardData(title="t", generated_at=100.0)
        data.alerts = [
            AlertEvent(30.0, "queue", "firing", 25.0, "depth > 20"),
            AlertEvent(90.0, "queue", "resolved", 0.0, "depth > 20"),
        ]
        data.firing = []
        html = render_dashboard_html(data)
        assert '<td class="l">queue</td>' in html
        assert "firing" in html and "resolved" in html
        assert "depth &gt; 20" in html

    def test_empty_data_still_renders(self):
        data = DashboardData(title="empty", generated_at=0.0)
        html = render_dashboard_html(data)
        assert "no alerts fired" in html
        assert "no scaling decisions recorded" in html
        text = render_dashboard_text(data)
        assert "(none)" in text


class TestTextContent:
    def test_sections_present(self):
        text = _demo_session().dashboard_text()
        for heading in ("service levels", "cluster over time", "alerts",
                        "autoscaler decisions"):
            assert heading in text

    def test_unicode_sparkline_bounds(self):
        samples = [(float(i), float(v)) for i, v in
                   enumerate([0, 1, 2, 3, 4, 5, 6, 7])]
        spark = _sparkline_text(samples)
        assert spark[0] == "▁"
        assert spark[-1] == "█"
        assert len(spark) == 8

    def test_sparkline_downsamples_to_width(self):
        samples = [(float(i), float(i % 9)) for i in range(400)]
        assert len(_sparkline_text(samples, width=40)) == 40

    def test_svg_sparkline_handles_edge_shapes(self):
        assert _sparkline_svg([]) == '<svg class="spark" viewBox="0 0 220 42"></svg>'
        flat = _sparkline_svg([(0.0, 5.0), (10.0, 5.0)])
        assert "polyline" in flat  # constant series stays in-bounds


class TestSchedulerPanel:
    def test_html_scheduler_section(self):
        db = _demo_session()
        html = render_dashboard_html(db.dashboard_data("demo"))
        assert "Scheduler" in html
        assert "admitted" in html
        assert "WFQ dispatches" in html

    def test_text_scheduler_section(self):
        db = _demo_session()
        text = render_dashboard_text(db.dashboard_data("demo"))
        assert "scheduler" in text

    def test_empty_scheduler_omits_panel(self):
        from repro.obs import Instrumentation

        data = DashboardData.build("empty", 0.0, Instrumentation.disabled())
        assert data.scheduler == {}
        html = render_dashboard_html(data)
        assert "WFQ dispatches" not in html

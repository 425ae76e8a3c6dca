"""Tests for the per-figure report generators (fast: synthetic records)."""

import pytest

from repro.experiments import fig7_fig8, fig9_fig10, fig11, headline
from repro.experiments.common import PG_SCHEMES, SCHEME_ORDER, RunRecord
from repro.experiments.paper_targets import PAPER
from repro.experiments.parsec_suite import summarize


def make_record(bench, scheme, latency, exec_time, blocked, wait, static, overhead):
    return RunRecord(
        workload=bench,
        scheme=scheme,
        execution_time=exec_time,
        avg_packet_latency=latency,
        avg_total_latency=latency + 3,
        avg_blocked_routers=blocked,
        avg_wakeup_wait=wait,
        injection_rate=0.01,
        dynamic_energy=0.2,
        static_energy=static,
        overhead_energy=overhead,
        cycles=exec_time,
    )


@pytest.fixture
def records():
    rows = []
    for bench in ("alpha", "beta"):
        rows.append(make_record(bench, "No-PG", 30.0, 1000, 0.0, 0.0, 1.0, 0.0))
        rows.append(make_record(bench, "ConvOpt-PG", 52.0, 1100, 4.2, 20.0, 0.2, 0.05))
        rows.append(
            make_record(bench, "PowerPunch-Signal", 34.0, 1020, 1.1, 5.0, 0.19, 0.06)
        )
        rows.append(
            make_record(bench, "PowerPunch-PG", 32.0, 1005, 0.9, 1.8, 0.18, 0.06)
        )
    return rows


class TestFig7Fig8Report:
    def test_contains_tables_and_headline(self, records):
        out = fig7_fig8.report(records)
        assert "Figure 7" in out and "Figure 8" in out
        assert "paper +69.1%" in out
        assert "alpha" in out and "beta" in out

    def test_normalized_execution_row(self, records):
        out = fig7_fig8.report(records)
        assert "AVG" in out


class TestFig9Fig10Report:
    def test_blocked_and_wait_tables(self, records):
        out = fig9_fig10.report(records)
        assert "Figure 9" in out and "Figure 10" in out
        assert "4.200" in out  # ConvOpt blocked
        assert "1.800" in out  # PP-PG wait


class TestFig11Report:
    def test_breakdown_normalized(self, records):
        out = fig11.report(records)
        assert "dynamic" in out and "pg-overhead" in out
        assert "net router static energy saved" in out


class TestHeadline:
    def test_compute_headline_values(self, records):
        h = headline.compute_headline(records)
        assert h["latency_penalty"]["ConvOpt-PG"] == pytest.approx(22 / 33, rel=1e-6)
        assert h["execution_penalty"]["PowerPunch-PG"] == pytest.approx(0.005)
        assert h["static_saved"]["PowerPunch-PG"] == pytest.approx(1 - 0.24)
        assert 0 < h["penalty_reduction_vs_convopt"] < 1

    def test_report_mentions_paper_values(self, records):
        out = headline.report(records)
        assert ">83%" in out and "61.2%" in out


#: What the parent commit's four reports and ``compute_headline`` produce
#: on the fixture (each module computed its own pivot and means there).
PARENT_HEADLINE = {
    "latency_penalty": {
        "ConvOpt-PG": 0.6666666666666667,
        "PowerPunch-Signal": 0.1212121212121211,
        "PowerPunch-PG": 0.06060606060606055,
    },
    "execution_penalty": {
        "ConvOpt-PG": 0.10000000000000009,
        "PowerPunch-Signal": 0.020000000000000018,
        "PowerPunch-PG": 0.004999999999999893,
    },
    "static_saved": {"ConvOpt-PG": 0.75, "PowerPunch-Signal": 0.75, "PowerPunch-PG": 0.76},
    "total_saved": {
        "ConvOpt-PG": 0.625,
        "PowerPunch-Signal": 0.625,
        "PowerPunch-PG": 0.6333333333333333,
    },
    "penalty_reduction_vs_convopt": 0.9090909090909092,
}
PARENT_LINES = {
    fig7_fig8: [
        "AVG (norm)  1.000   1.667       1.121              1.061        ",
        "AVG        1.000  1.100       1.020              1.005        ",
        "Headline: latency penalty No-PG->ConvOpt-PG +66.7% (paper +69.1%), "
        "PowerPunch-Signal +12.1% (paper +12.6%), PowerPunch-PG +6.1% (paper +7.9%); "
        "penalty reduction vs ConvOpt-PG 90.9% (paper 61.2%). "
        "Execution time: PowerPunch-PG +0.5% (paper +0.4%).",
    ],
    fig9_fig10: [
        "AVG        4.200       1.100              0.900        ",
        "AVG        20.000      5.000              1.800        ",
        "Headline: blocked routers/packet 4.20 -> 1.10 -> 0.90 (paper 4.21 -> 1.09 -> 0.96); "
        "NI-slack improvement 18.2% on Fig. 9 (paper 11.8%) but 64.0% on Fig. 10 wait "
        "cycles (paper 36.2%), revealing the hidden wakeup latency the blocked-router "
        "count cannot show.",
    ],
    fig11: [
        "alpha      PowerPunch-PG      0.167    0.150   0.050        0.367",
        "Headline: net router static energy saved ConvOpt-PG: 75.0%, PowerPunch-Signal: "
        "75.0%, PowerPunch-PG: 76.0% (paper ~83% for all three).  Total router energy "
        "saved ConvOpt-PG: 62.5%, PowerPunch-Signal: 62.5%, PowerPunch-PG: 63.3% "
        "(paper 50.3% / 52.9% / 54.1%) — Power Punch saves the most.",
    ],
    headline: [
        "  router static energy saved (PowerPunch-PG) 76.0%   (paper: >83%)",
        "  execution-time penalty (PowerPunch-PG)     +0.5%    (paper: <0.4%)",
        "  packet-latency penalty (PowerPunch-PG)     +6.1%    (paper: +7.9%)",
        "  latency-penalty reduction vs ConvOpt-PG    90.9%   (paper: 61.2%)",
        "    PowerPunch-Signal  latency  +12.1%  exec  +2.0%  static saved  75.0%  "
        "total energy saved  62.5%",
    ],
}


class TestOneSummary:
    """Figs 7-11 and the headline format one reduction of the matrix."""

    def test_summary_is_the_parents_numbers(self, records):
        by_bench, avg = summarize(records)
        assert list(by_bench) == ["alpha", "beta"]
        assert by_bench["beta"]["ConvOpt-PG"] is records[5]
        for name in ("latency_penalty", "execution_penalty", "static_saved", "total_saved"):
            assert {s: avg[name][s] for s in PG_SCHEMES} == PARENT_HEADLINE[name]
            assert avg[name]["No-PG"] == 0
        assert avg["blocked_routers"] == pytest.approx(
            dict(zip(SCHEME_ORDER, (0.0, 4.2, 1.1, 0.9)))
        )
        assert avg["wakeup_wait"] == pytest.approx(
            dict(zip(SCHEME_ORDER, (0.0, 20.0, 5.0, 1.8)))
        )

    def test_compute_headline_is_bit_identical_to_the_parent(self, records):
        assert headline.compute_headline(records) == PARENT_HEADLINE

    @pytest.mark.parametrize("module", list(PARENT_LINES), ids=lambda m: m.__name__)
    def test_reports_print_the_parents_lines(self, module, records):
        lines = module.report(records).splitlines()
        for expected in PARENT_LINES[module]:
            assert expected in lines

    def test_record_order_does_not_matter(self, records):
        assert summarize(records[::-1])[1] == summarize(records)[1]

    def test_paper_values_come_from_the_one_table(self, records, monkeypatch):
        monkeypatch.setitem(PAPER["latency_penalty"], "PowerPunch-PG", 0.123)
        monkeypatch.setitem(PAPER, "static_saved", 0.5)
        assert "PowerPunch-PG +6.1% (paper +12.3%)" in fig7_fig8.report(records)
        assert "(paper: +12.3%)" in headline.report(records)
        assert "(paper: >50%)" in headline.report(records)
        assert "(paper ~50% for all three)" in fig11.report(records)

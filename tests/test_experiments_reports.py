"""Tests for the report generators (fast: synthetic records).

The PARSEC report (``repro.experiments.headline``) is driven with two
synthetic seeds; the claim rule is checked through the verdicts it
prints."""

from dataclasses import asdict, replace

import pytest

from repro.experiments import baselines_compare, headline, scalability
from repro.experiments.common import PG_SCHEMES, SCHEME_ORDER, RunRecord
from repro.experiments.paper_targets import PAPER
from repro.experiments.parsec_suite import summarize
from repro.noc import Activity


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


def reseeded(records, changes):
    """Another seed's records: ``changes[scheme]`` holds the fields that
    differ from ``records`` on every benchmark."""
    return [replace(r, **changes.get(r.scheme, {})) for r in records]


@pytest.fixture
def by_seed(records):
    """Seed 2 moves ConvOpt-PG's latency penalty (+66.7% -> +75.8%) and
    PowerPunch-PG's execution penalty (+0.5% -> +0.3%)."""
    seed2 = reseeded(
        records,
        {"ConvOpt-PG": {"avg_total_latency": 58.0}, "PowerPunch-PG": {"execution_time": 1003}},
    )
    return {1: records, 2: seed2}


def claim_rows(by_seed):
    """The printed claim table as ``{(figure, claim): (paper, measured,
    verdict)}``."""
    rows = {}
    for line in headline.report(by_seed).splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 5 and cells[0] not in ("figure", "---"):
            rows[cells[0], cells[1]] = tuple(cells[2:])
    return rows


#: What the parent commit's ``compute_headline`` and ``summarize``
#: produce on the fixture.
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
#: Lines of the parent commit's Fig. 7-11 tables on the fixture: one
#: seed's report prints them unchanged.
PARENT_LINES = [
    "AVG (norm)  1.000   1.667       1.121              1.061        ",
    "AVG        1.000  1.100       1.020              1.005        ",
    "AVG        4.200       1.100              0.900        ",
    "AVG        20.000      5.000              1.800        ",
    "alpha      PowerPunch-PG      0.167    0.150   0.050        0.367",
]


class TestOneSummary:
    """Every seed's matrix is reduced by one ``summarize``."""

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

    def test_one_seed_prints_the_parents_figure_lines(self, records):
        lines = headline.report({1: records}).splitlines()
        for expected in PARENT_LINES:
            assert expected in lines

    def test_record_order_does_not_matter(self, records):
        assert summarize(records[::-1])[1] == summarize(records)[1]


class TestClaimTable:
    """One rule by claim kind, on two synthetic seeds."""

    def test_figure_entries_are_seed_means(self, by_seed):
        lines = headline.report(by_seed).splitlines()
        assert lines[0] == "PARSEC suite, 8x8 mesh, means over seeds 1, 2"
        # Fig. 7: ConvOpt-PG's latency, (55 + 58) / 2 on every benchmark.
        assert "alpha       33.000  56.500      37.000             35.000       " in lines
        # Fig. 8: PowerPunch-PG's execution time, (1.005 + 1.003) / 2.
        assert "AVG        1.000  1.100       1.020              1.004        " in lines

    def test_a_value_inside_the_seeds_range_reproduces(self, by_seed):
        rows = claim_rows(by_seed)
        assert rows["Fig. 7", "ConvOpt-PG latency penalty"] == (
            "+69.1%", "+71.2% [+66.7%–+75.8%]", "reproduces"
        )
        assert rows["Fig. 8", "PowerPunch-PG execution penalty"] == (
            "+0.4%", "+0.4% [+0.3%–+0.5%]", "reproduces"
        )

    def test_a_value_outside_it_prints_the_signed_error_of_the_mean(self, by_seed):
        rows = claim_rows(by_seed)
        assert rows["Fig. 7", "PowerPunch-PG latency penalty"] == (
            "+7.9%", "+6.1% [+6.1%–+6.1%]", "-1.8 pp"
        )
        assert rows["Fig. 9", "PowerPunch-PG powered-off routers per packet"][2] == "-0.06"

    def test_a_bound_broken_on_one_seed_fails(self, by_seed):
        rows = claim_rows(by_seed)
        assert rows["Abstract", "PowerPunch-PG execution penalty"] == (
            "< +0.4%", "+0.4% [+0.3%–+0.5%]", "fails on 1 of 2 seeds"
        )
        assert rows["Abstract", "PowerPunch-PG net static energy saved"][2] == (
            "fails on 2 of 2 seeds"
        )

    def test_a_shape_holds_only_on_every_benchmark_of_every_seed(self, by_seed):
        claim = "Fig. 8", "max over benchmarks: PowerPunch-PG / No-PG execution"
        assert claim_rows(by_seed)[claim] == ("≤ 1.030", "1.004 [1.003–1.005]", "holds")
        # One benchmark of one seed 4 % slower under PowerPunch-PG.
        by_seed[2] = [
            replace(r, execution_time=1040)
            if (r.workload, r.scheme) == ("beta", "PowerPunch-PG")
            else r
            for r in by_seed[2]
        ]
        assert claim_rows(by_seed)[claim][2] == "fails on 1 of 2 seeds"

    def test_monkeypatching_paper_flips_the_printed_verdict(self, by_seed, monkeypatch):
        monkeypatch.setitem(PAPER["latency_penalty"], "ConvOpt-PG", 0.9)
        monkeypatch.setitem(PAPER["execution_penalty"], "PowerPunch-PG", 0.01)
        rows = claim_rows(by_seed)
        assert rows["Fig. 7", "ConvOpt-PG latency penalty"] == (
            "+90.0%", "+71.2% [+66.7%–+75.8%]", "-18.8 pp"
        )
        assert rows["Abstract", "PowerPunch-PG execution penalty"] == (
            "< +1.0%", "+0.4% [+0.3%–+0.5%]", "holds"
        )


class TestSyntheticReportVerdicts:
    """A report's closing sentence is computed from its records."""

    def test_scalability_says_when_the_reduction_does_not_grow(self, records):
        def at(size, conv, ppg):
            return [
                ((size, "No-PG"), replace(records[0], avg_total_latency=30.0)),
                ((size, "ConvOpt-PG"), replace(records[1], avg_total_latency=conv)),
                ((size, "PowerPunch-PG"), replace(records[3], avg_total_latency=ppg)),
            ]

        shrinking = at(4, 50.0, 30.0) + at(8, 55.0, 33.0) + at(16, 60.0, 40.0)
        assert "the reduction does not grow with mesh size" in scalability.report(shrinking)
        growing = at(4, 50.0, 35.0) + at(8, 55.0, 33.0) + at(16, 60.0, 32.0)
        assert "the reduction grows with mesh size" in scalability.report(growing)

    def test_baselines_says_when_the_detour_ratio_is_below_the_papers(self):
        one_router_cycle = asdict(
            Activity(1, 1, 5, 0, 0, on_cycles=1, off_cycles=0, wake_events=0,
                     punch_transmissions=0, gated=False)
        )

        def results(nord_penalty):
            return [
                (scheme, {"latency": 30.0 + penalty, "activity": one_router_cycle, "detoured": 0})
                for scheme, penalty in (
                    ("No-PG", 0.0),
                    ("ConvOpt-PG", 20.0),
                    ("PowerPunch-PG", 2.0),
                    ("NoRD-like", nord_penalty),
                )
            ]

        below = baselines_compare.report(results(4.0))
        assert "2.0x Power Punch's" in below
        assert "below the paper's ratio" in below and "detours more" not in below
        assert "above the paper's ratio" in baselines_compare.report(results(40.0))

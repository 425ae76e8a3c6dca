"""Benchmark: ablations over Power Punch design choices (DESIGN.md S2+).

Asserts the design arguments the paper makes in prose:

* the punch horizon must reach ceil(Twakeup/Trouter) hops before
  transit wakeup waits vanish;
* slack 1 and slack 2 each remove a further chunk of injection-side
  wakeup wait;
* the punch forewarning filter reduces wake thrash (fewer wake events
  for comparable gated-off time).
"""

from repro.experiments.ablations import forewarning_cells, punch_hops_cells, slack_cells
from repro.experiments.common import run_keyed

MEASURE = 2500


def test_bench_punch_hops(once):
    results = dict(once(run_keyed, "bench", punch_hops_cells(measurement=MEASURE)))
    # Twakeup=8 on a 3-stage router needs ceil(8/3)=3 hops: the wait
    # must drop sharply from 1-hop to 3-hop horizons...
    assert results[3]["wait"] < 0.6 * results[1]["wait"]
    assert results[2]["wait"] <= results[1]["wait"]
    # ...while 4 hops buys little more latency benefit.
    assert results[4]["latency"] <= results[3]["latency"] * 1.05


def test_bench_slack_decomposition(once):
    results = once(run_keyed, "bench", slack_cells(measurement=MEASURE))
    waits = [res["wait"] for _name, res in results]
    # Each slack strictly reduces wakeup-wait cycles.
    assert waits[0] > waits[1] > waits[2]
    # Slack 1+2 together hide nearly all of it (paper: near
    # non-blocking).
    assert waits[2] < 0.4 * waits[0]


def test_bench_forewarning_filter(once):
    results = dict(once(run_keyed, "bench", forewarning_cells(measurement=MEASURE)))
    on = results["forewarning on"]
    off = results["forewarning off"]
    # Without the filter the scheme wakes routers it shouldn't have
    # slept; with it, fewer wake events per gated-off cycle.
    assert on["wake_events"] <= off["wake_events"] * 1.10
    assert on["latency"] <= off["latency"] * 1.05

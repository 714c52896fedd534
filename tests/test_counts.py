"""The benchmark's eight deterministic counts, pinned for its three workloads.

perfbench/run.py derives them from the spans of one traced in-process run
(python3 perfbench/run.py --workload all --seed 1 --trace 1 prints them).
The firings, the trace bytes and the makespan are fixed by each workload;
the counts where lower is better are bounded above, and mean parallelism
below. A change that adds an enablement test per firing fails here. A bound
may be tightened when a change lowers a count; it is never loosened.
"""
import sys

import pytest

from conftest import REPO

sys.path.insert(0, str(REPO / "perfbench"))

import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

# Per workload at seed 1: firings, trace bytes, makespan, and the totals
# behind the per-firing counts: can_fire calls, startable_set calls, state
# copies and enabled_set calls, and the busy time of the schedule.
PINNED = {
    "loop-long": (4_802, 538_512, 3_201, 9_608, 3_202, 2, 2, 4_802),
    "loops-wide": (608, 861_124, 25, 1_280, 26, 2, 2, 608),
    "tree-fanin": (255, 960_827, 54, 763, 43, 2, 2, 1_301),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_deterministic_counts_hold_their_pins(name):
    work = gen.make(name, 1)
    tracer = Tracer("counts")
    assert tracer.install() == []
    try:
        out = run.in_process(work, tracer)
    finally:
        tracer.uninstall()
    assert run.check_in_process(work, out, None) is None
    got = run.layer_metrics(tracer, out)
    assert set(run.DETERMINISTIC) <= set(got)
    firings, trace_bytes, makespan, can_fire, startable, copies, enabled, busy = PINNED[name]
    assert got["sequential.firings"] == firings
    assert got["dsl.trace_bytes"] == trace_bytes
    assert got["concurrent.makespan_vt"] == makespan
    assert got["semantics.can_fire_per_firing"] <= can_fire / firings
    assert got["concurrent.startable_set_per_firing"] <= startable / firings
    # copies are shared out over the firings of the run and the simulation
    assert got["model.state_copies_per_firing"] <= copies / (2 * firings)
    assert got["concurrent.enabled_set_per_firing"] <= enabled / firings
    assert got["concurrent.mean_parallelism"] >= busy / makespan

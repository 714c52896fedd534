"""The indexed processors against the plain reference interpreters."""
from hypothesis import given, settings
import hypothesis.strategies as st

import reference
from tokenflow import (
    Composition,
    FlowError,
    ProcessRegistry,
    RunLimits,
    default_registry,
    initial_state,
    parse_composition,
    run_to_convergence,
    schedule_tsv,
    serialize_trace,
    simulate_concurrent,
)
from tokenflow.model import NEW, DataNode, OperatorSpec
from tokenflow.semantics import Run, enabled_set
from conftest import marked_states, small_compositions

# Step limits that bind on most drawn runs, and one that binds only on runs
# that never converge.
STEP_LIMITS = [1, 2, 3, 5, 8, 13, 21, 300]


def _outcome(call):
    """The call's result, or the class and message of the FlowError it raised."""
    try:
        return call()
    except FlowError as exc:
        return type(exc), str(exc)


def _engine_run(comp, state, max_steps):
    result = run_to_convergence(comp, state, default_registry(), RunLimits(max_steps))
    return result.final_state, serialize_trace(result.trace), result.converged


def _engine_simulate(comp, state, durations, max_steps):
    result, schedule = simulate_concurrent(
        comp, state, default_registry(), durations, RunLimits(max_steps)
    )
    return (
        result.final_state,
        serialize_trace(result.trace),
        result.converged,
        schedule_tsv(schedule),
    )


def _reference_simulate(comp, state, durations, max_steps):
    final, text, converged, schedule = reference.simulate(
        comp, state, default_registry(), durations, max_steps
    )
    return final, text, converged, schedule_tsv(schedule)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_processors_match_the_reference_interpreters(data):
    comp = data.draw(small_compositions(max_data=12, max_ops=10))
    state = data.draw(marked_states(comp, with_text=True))
    durations = {
        op.index: data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        for op in comp.operators
    }
    max_steps = data.draw(st.sampled_from(STEP_LIMITS))
    registry = default_registry()

    assert _outcome(lambda: _engine_run(comp, state, max_steps)) == _outcome(
        lambda: reference.run(comp, state, registry, max_steps)
    )
    assert _outcome(
        lambda: _engine_simulate(comp, state, durations, max_steps)
    ) == _outcome(lambda: _reference_simulate(comp, state, durations, max_steps))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_run_has_converged_exactly_when_nothing_is_enabled(data):
    # Also at the step limit: an operator still in flight there has not
    # committed, and nothing has touched its neighbourhood since it started,
    # so it is still enabled.
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp, with_text=True))
    limits = RunLimits(data.draw(st.sampled_from(STEP_LIMITS)))
    registry = default_registry()
    for processor in (
        lambda: run_to_convergence(comp, state, registry, limits),
        lambda: simulate_concurrent(comp, state, registry, None, limits)[0],
    ):
        try:
            result = processor()
        except FlowError:  # a failed firing ends the run unconverged
            continue
        assert result.converged == (enabled_set(comp, result.final_state) == [])


def test_reenabled_operator_keeps_its_wait_time():
    # At time 2, A consumes i, which disables X, and B writes j, which
    # enables X again. X has waited since time 0, so it starts ahead of Y,
    # which shares xo with X, became enabled at time 2 and has the lower
    # index. Were X's wait time reset, Y would start instead.
    comp, state, durations = parse_composition(
        "data i num\ndata j num\ndata src num\ndata ao num\ndata xo num\n"
        "op A process:identity (i) -> (ao)\n"
        "op B process:identity (src) -> (j)\n"
        "op Y process:identity (ao) -> (xo)\n"
        "op X process:add (i, j) -> (xo)\n"
        "init i = 1\ninit j = 2 old\ninit src = 3\n"
        "dur A = 2\ndur B = 2\n"
    )
    engine = _engine_simulate(comp, state, durations, 100)
    assert engine == _reference_simulate(comp, state, durations, 100)
    assert engine[3] == "0\t2\tA\t{ao=1}\n0\t2\tB\t{j=3}\n2\t3\tX\t{xo=4}\n"


def test_an_operator_without_outputs_stays_enabled():
    # Only a hand-built composition can hold an operator with no outputs.
    # Its firings write nothing, so nothing disables it, and the step limit
    # ends both runs.
    comp = Composition((), (OperatorSpec(0, "p", "process", (), (), "identity"),))
    state = initial_state(comp)
    engine = _engine_run(comp, state, 5)
    assert engine == reference.run(comp, state, default_registry(), 5)
    assert engine[1].count("step=") == 5 and not engine[2]
    durations = {0: 1.0}
    engine = _engine_simulate(comp, state, durations, 5)
    assert engine == _reference_simulate(comp, state, durations, 5)
    assert engine[3] == "".join(f"{t}\t{t + 1}\tp\t{{}}\n" for t in range(5))
    # With an empty neighbourhood no busy data holds p back, so only being
    # in flight keeps it from starting again while q completes around it.
    q = OperatorSpec(1, "q", "process", (), (), "identity")
    comp = Composition((), (*comp.operators, q))
    state = initial_state(comp)
    durations = {0: 2.0, 1: 1.0}
    engine = _engine_simulate(comp, state, durations, 5)
    assert engine == _reference_simulate(comp, state, durations, 5)
    assert engine[3] == "0\t1\tq\t{}\n0\t2\tp\t{}\n1\t2\tq\t{}\n2\t3\tq\t{}\n2\t4\tp\t{}\n"


def test_an_operator_writing_nothing_is_disabled_by_its_firing():
    # Only a hand-built operator can have no outputs. A process or sync one
    # that reads a New input consumes it, so its one firing, which writes
    # nothing, disables it in both processors.
    registry = ProcessRegistry({"drop": lambda values, count: []})
    data = (DataNode(0, "a"), DataNode(1, "b"))
    for op in (
        OperatorSpec(0, "p", "process", (0,), (), "drop"),
        OperatorSpec(0, "p", "sync", (0, 1), ()),
    ):
        comp = Composition(data, (op,))
        state = initial_state(comp, {0: NEW, 1: NEW}, {0: 1.0, 1: 2.0})
        run = Run(comp, state, registry, RunLimits())
        run.commit(0)
        assert (run.order, run.enabled) == ([], set()), op.kind
        result = run_to_convergence(comp, state, registry)
        engine = (result.final_state, serialize_trace(result.trace), result.converged)
        assert engine == reference.run(comp, state, registry, 100), op.kind
        assert result.converged and len(result.trace) == 1, op.kind
        result, schedule = simulate_concurrent(comp, state, registry)
        final, text, converged, expected = reference.simulate(comp, state, registry, {}, 100)
        assert (result.final_state, serialize_trace(result.trace), result.converged) == (
            final, text, converged
        ), op.kind
        assert schedule_tsv(schedule) == schedule_tsv(expected) == "0\t1\tp\t{}\n", op.kind

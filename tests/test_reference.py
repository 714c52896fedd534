"""The indexed processors against the plain reference interpreters."""
from hypothesis import given, settings
import hypothesis.strategies as st

import reference
from tokenflow import (
    FlowError,
    RunLimits,
    default_registry,
    parse_composition,
    run_to_convergence,
    schedule_tsv,
    serialize_trace,
    simulate_concurrent,
)
from tokenflow.semantics import enabled_set
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

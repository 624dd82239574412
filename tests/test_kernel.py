from __future__ import annotations

from datetime import datetime, timedelta
from decimal import Decimal

import pytest

from gabm.errors import EpisodeAbort, NoMatchingOption, NotANumber
from gabm.kernel import (
    ActionSpec,
    AgentAction,
    ClockMode,
    EventStatement,
    GameClock,
    ModelCall,
    Observation,
    OutputKind,
    TraceRecord,
    parse_choice,
    parse_float_token,
    parse_time,
)


def test_clock_advance_matches_datetime_arithmetic():
    # Oracle: plain datetime arithmetic, independent of the clock type.
    start = datetime(2024, 5, 1, 8, 0)
    clock = GameClock(current_time=start, step_minutes=60)
    for ticks in range(1, 25):
        clock.advance()
        assert clock.current_time == start + timedelta(minutes=60 * ticks)
        assert clock.step_index == ticks
    assert clock.current_time == datetime(2024, 5, 2, 8, 0)


def test_clock_zero_step_is_time_identity():
    clock = GameClock(current_time=datetime(2024, 5, 1, 8, 0), step_minutes=0)
    clock.advance()
    assert clock.current_time == datetime(2024, 5, 1, 8, 0)
    assert clock.step_index == 1


def test_clock_floors_to_minute_and_rejects_bad_steps():
    clock = GameClock(current_time=datetime(2024, 5, 1, 8, 0, 31, 250))
    assert clock.current_time == datetime(2024, 5, 1, 8, 0)
    with pytest.raises(ValueError):
        GameClock(current_time=datetime(2024, 5, 1), step_minutes=-5)
    with pytest.raises(ValueError):
        GameClock(current_time=datetime(2024, 5, 1), step_minutes=1.5)  # type: ignore[arg-type]


def test_clock_advance_by_refuses_backward():
    clock = GameClock(current_time=datetime(2024, 5, 1, 8, 0))
    clock.advance_by(30)
    assert clock.current_time == datetime(2024, 5, 1, 8, 30)
    assert clock.step_index == 0
    with pytest.raises(ValueError):
        clock.advance_by(-1)


def test_clock_overflow_aborts_and_leaves_the_clock_unmoved():
    last_hour = datetime(9999, 12, 31, 23, 0)
    clock = GameClock(current_time=last_hour, step_minutes=60)
    with pytest.raises(EpisodeAbort, match="cannot move 60 minutes past 9999-12-31T23:00"):
        clock.advance()
    with pytest.raises(EpisodeAbort):
        GameClock(current_time=datetime(2024, 5, 1, 8, 0)).advance_by(10**20)
    assert clock.current_time == last_hour
    assert clock.step_index == 0


def test_clock_modes_are_distinct_values():
    assert ClockMode.ADVANCE_PER_PLAYER is not ClockMode.ADVANCE_PER_ROUND
    assert ClockMode("player") is ClockMode.ADVANCE_PER_PLAYER


def test_action_spec_choice_needs_two_distinct_options():
    with pytest.raises(ValueError):
        ActionSpec("pick", OutputKind.CHOICE, options=("only",))
    with pytest.raises(ValueError):
        ActionSpec("pick", OutputKind.CHOICE, options=("dup", "dup"))
    spec = ActionSpec("pick", OutputKind.CHOICE, options=("yes", "no"))
    assert spec.options == ("yes", "no")


def test_action_spec_non_choice_takes_no_options():
    with pytest.raises(ValueError):
        ActionSpec("say", OutputKind.FREE_TEXT, options=("a", "b"))
    with pytest.raises(ValueError):
        ActionSpec("rate", OutputKind.FLOAT, options=("1", "2"))


def test_action_spec_render_substitutes_name_and_time_only():
    spec = ActionSpec("What would {name} do at {time}? Keep {braces}.")
    rendered = spec.render("Alice", "2024-05-01T08:00")
    assert rendered == "What would Alice do at 2024-05-01T08:00? Keep {braces}."


def test_event_cannot_precede_cause():
    spec = ActionSpec("act")
    action = AgentAction("Alice", "waves", spec, datetime(2024, 5, 1, 9, 0))
    with pytest.raises(ValueError):
        EventStatement("Alice waved.", action, datetime(2024, 5, 1, 8, 59))
    event = EventStatement("Alice waved.", action, datetime(2024, 5, 1, 9, 0))
    assert event.timestamp == action.timestamp


def test_choice_exact_match_is_case_insensitive():
    assert parse_choice("B", ("a", "b", "c")) == (1, "b")
    assert parse_choice("  YES ", ("yes", "no")) == (0, "yes")


def test_choice_unique_prefix_matches():
    options = ("vote for Bob", "vote for Alice")
    assert parse_choice("vote for B", options) == (0, "vote for Bob")
    assert parse_choice("VOTE FOR A", options) == (1, "vote for Alice")


def test_choice_ambiguous_prefix_rejected():
    with pytest.raises(NoMatchingOption):
        parse_choice("a", ("aa", "ab"))


def test_choice_no_match_rejected():
    with pytest.raises(NoMatchingOption):
        parse_choice("zebra", ("yes", "no"))
    with pytest.raises(NoMatchingOption):
        parse_choice("", ("yes", "no"))


# Twenty hand-checked numeric extractions; expectations computed by hand.
FLOAT_CASES = [
    ("3.5", Decimal("3.5")),
    ("about 3.5 hours", Decimal("3.5")),
    ("-2", Decimal("-2")),
    ("+0.25", Decimal("0.25")),
    ("I'd say 7", Decimal("7")),
    (".5", Decimal("0.5")),
    ("5.", Decimal("5")),
    ("1e3", Decimal("1000")),
    ("2.5e-2", Decimal("0.025")),
    ("the answer is 42.", Decimal("42")),
    ("score: -0.75 (low)", Decimal("-0.75")),
    ("3/4", Decimal("3")),
    ("version 2.0.1", Decimal("2.0")),
    ("  -3.25  ", Decimal("-3.25")),
    ("7 or 8", Decimal("7")),
    ("1,000", Decimal("1")),
    ("-.5", Decimal("-0.5")),
    ("answer=+12", Decimal("12")),
    ("roughly 0.333...", Decimal("0.333")),
    ("9am", Decimal("9")),
]


@pytest.mark.parametrize("raw,expected", FLOAT_CASES)
def test_float_first_token(raw, expected):
    assert parse_float_token(raw) == expected


@pytest.mark.parametrize("raw", ["", "no number here", "one hundred", "---", "e.g."])
def test_float_rejects_numberless_text(raw):
    with pytest.raises(NotANumber):
        parse_float_token(raw)


def _sample_record() -> TraceRecord:
    spec = ActionSpec("choose", OutputKind.CHOICE, options=("stay", "go"))
    action = AgentAction("Ana", "go", spec, datetime(2024, 5, 1, 8, 0))
    return TraceRecord(
        kind="turn",
        step=3,
        turn=7,
        timestamp=datetime(2024, 5, 1, 8, 0),
        actor="Ana",
        agent_states={"goal": "find café ☕", "plan": "wait"},
        gm_states={"inventory": "Ana has 1.50 coin."},
        prompts=["Instructions: …\ngoal: find café ☕\nchoose"],
        action=action,
        event="Ana left the café.",
        observations=[Observation("Bo", "Ana left.", datetime(2024, 5, 1, 8, 0))],
        model_calls=[ModelCall("agent:Ana:act", "choose…", "go", "scripted")],
        notes=["scene start: phone: Ana"],
    )


def test_trace_record_round_trip_is_byte_exact():
    record = _sample_record()
    line = record.to_json_line()
    again = TraceRecord.from_json_line(line)
    assert again.to_json_line() == line
    assert again == record


def test_trace_record_round_trips_empty_fields():
    record = TraceRecord(
        kind="turn", step=0, turn=0, timestamp=datetime(2024, 1, 1, 0, 0), actor="A"
    )
    line = record.to_json_line()
    assert TraceRecord.from_json_line(line).to_json_line() == line


def test_trace_record_line_has_sorted_keys():
    line = _sample_record().to_json_line()
    keys = list(TraceRecord.from_json_line(line).to_dict())
    assert line.index('"action"') < line.index('"actor"') < line.index('"agent_states"')
    assert "kind" in keys


def test_time_round_trip_minute_resolution():
    assert parse_time("2024-05-01T08:09") == datetime(2024, 5, 1, 8, 9)
    with pytest.raises(ValueError):
        parse_time("2024-05-01 08:09")

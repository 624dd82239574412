from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gabm import kernel
from gabm.errors import EpisodeAbort, NoMatchingOption, NotANumber
from gabm.kernel import (
    ActionSpec,
    AgentAction,
    TIME_CACHE_ENTRIES,
    ClockMode,
    EventStatement,
    GameClock,
    ModelCall,
    Observation,
    OutputKind,
    TIME_FORMAT,
    TraceRecord,
    canonical_config_json,
    canonical_json,
    floor_to_minute,
    format_time,
    parse_choice,
    parse_float_token,
    parse_time,
)

from conftest import oracle_settings


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
    # parse_choice matches stripped and casefolded, so the second could never be chosen.
    with pytest.raises(ValueError, match="distinct"):
        ActionSpec("pick", OutputKind.CHOICE, options=("Yes", " yes"))
    with pytest.raises(ValueError, match="blank"):
        ActionSpec("pick", OutputKind.CHOICE, options=("", "wave"))
    with pytest.raises(ValueError, match="blank"):
        ActionSpec("pick", OutputKind.CHOICE, options=("  ", "wave"))
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


# The last matches the number pattern, but its exponent is past what Decimal takes.
@pytest.mark.parametrize("raw", ["", "no number here", "one hundred", "---", "e.g.", "1e9999999999999999999"])
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
        action=action,
        event="Ana left the café.",
        observations=[Observation("Bo", "Ana left.", datetime(2024, 5, 1, 8, 0))],
        model_calls=[ModelCall("agent:Ana:act", "choose…", "go", "scripted")],
        notes=["scene start: phone: Ana"],
    )


def test_trace_record_round_trip_is_byte_exact():
    record = _sample_record()
    line = record.to_json_line()
    again = TraceRecord.from_dict(json.loads(line))
    assert again.to_json_line() == line
    assert again == record


def test_trace_record_round_trips_empty_fields():
    record = TraceRecord(
        kind="turn", step=0, turn=0, timestamp=datetime(2024, 1, 1, 0, 0), actor="A"
    )
    line = record.to_json_line()
    assert TraceRecord.from_dict(json.loads(line)).to_json_line() == line


T1 = datetime(2024, 5, 1, 8, 0)
T2 = datetime(2024, 5, 1, 8, 15)
# Observation lists, each as (recipient, text, time), and the groups that
# encode them: a run of equal text and time is written once.
OBSERVATION_GROUPS = {
    "none": ([], []),
    "one event to three": (
        [("A", "rain", T1), ("B", "rain", T1), ("C", "rain", T1), ("A", "sun", T1)],
        [(["A", "B", "C"], "rain", T1), (["A"], "sun", T1)],
    ),
    "interleaved deliveries": (
        [("A", "x", T1), ("B", "x", T2), ("A", "x", T2), ("B", "x", T1)],
        [(["A"], "x", T1), (["B", "A"], "x", T2), (["B"], "x", T1)],
    ),
    "equal text at two times": (
        [("A", "bell", T1), ("B", "bell", T1), ("A", "bell", T2)],
        [(["A", "B"], "bell", T1), (["A"], "bell", T2)],
    ),
    "one recipient twice": (
        [("A", "knock", T1), ("A", "knock", T1)],
        [(["A", "A"], "knock", T1)],
    ),
}


@pytest.mark.parametrize("case", OBSERVATION_GROUPS)
def test_observation_groups_round_trip_in_delivery_order(case):
    observed, groups = OBSERVATION_GROUPS[case]
    record = TraceRecord(
        kind="turn",
        step=0,
        turn=0,
        timestamp=T1,
        actor="A",
        observations=[Observation(*fields) for fields in observed],
    )
    data = json.loads(record.to_json_line())
    assert data["observations"] == [
        {"recipients": recipients, "text": text, "time": format_time(moment)}
        for recipients, text, moment in groups
    ]
    assert TraceRecord.from_dict(data) == record


def test_observations_at_one_instant_in_two_zones_are_two_groups():
    utc = datetime(2024, 5, 1, 9, 30, tzinfo=timezone.utc)
    paris = utc.astimezone(timezone(timedelta(hours=2)))
    record = TraceRecord(
        kind="turn",
        step=0,
        turn=0,
        timestamp=utc,
        actor="A",
        observations=[Observation("A", "bell", utc), Observation("B", "bell", paris)],
    )
    groups = record.to_dict()["observations"]
    assert [(g["recipients"], g["time"]) for g in groups] == [
        (["A"], "2024-05-01T09:30"),
        (["B"], "2024-05-01T11:30"),
    ]


@pytest.mark.parametrize(
    "recipients, message",
    [
        ([], "observation recipients must be a non-empty list, got []"),
        ("Bo", "observation recipients must be a non-empty list, got 'Bo'"),
        ({"Bo": 1}, "observation recipients must be a non-empty list, got {'Bo': 1}"),
        (["Bo", 7], "observation recipient must be str, got 7"),
        (["Bo", None], "observation recipient must be str, got None"),
    ],
)
def test_an_observation_group_needs_a_non_empty_list_of_recipient_names(recipients, message):
    data = _sample_record().to_dict()
    data["observations"][0]["recipients"] = recipients
    with pytest.raises(ValueError) as raised:
        TraceRecord.from_dict(data)
    assert str(raised.value) == message


def test_a_record_has_no_copy_of_its_act_prompt():
    data = _sample_record().to_dict()
    assert "prompts" not in data
    assert [call["prompt"] for call in data["model_calls"]] == ["choose…"]


def test_trace_record_line_has_sorted_keys():
    line = _sample_record().to_json_line()
    keys = list(TraceRecord.from_dict(json.loads(line)).to_dict())
    assert line.index('"action"') < line.index('"actor"') < line.index('"agent_states"')
    assert "kind" in keys


def test_time_round_trip_minute_resolution():
    assert parse_time("2024-05-01T08:09") == datetime(2024, 5, 1, 8, 9)
    with pytest.raises(ValueError):
        parse_time("2024-05-01 08:09")


def _time_field(low: int, high: int):
    """One field, mostly in range, written as format_time would or as
    strptime also reads it: unpadded, space-padded, or in other digits."""
    written = st.integers(low - 1, high + 1).flatmap(
        lambda n: st.sampled_from([f"{n:02d}", f"{n}", f"{n:2d}"])
    )
    return written | st.from_regex(r"\d\d", fullmatch=True)


# Anything at all; what format_time writes, including years below 1000;
# and near misses of the format that fromisoformat or strptime might read.
TIME_TEXTS = (
    st.text(max_size=20)
    | st.datetimes().map(format_time)
    | st.builds(
        "{}-{}-{}{}{}:{}{}".format,
        st.from_regex(r"[0-9]{4}|\d{1,5}", fullmatch=True),
        _time_field(1, 12),
        _time_field(1, 31),
        st.sampled_from("Tt _"),
        _time_field(0, 23),
        _time_field(0, 59),
        st.sampled_from(["", ":00", "Z", "+01:00", ".5", " "]),
    )
)


@settings(max_examples=300, deadline=None)
@given(text=TIME_TEXTS)
def test_parse_time_accepts_exactly_what_strptime_accepts(text):
    try:
        expected = datetime.strptime(text, TIME_FORMAT)
    except ValueError:
        with pytest.raises(ValueError):
            parse_time(text)
    else:
        assert parse_time(text) == expected


@settings(max_examples=300, deadline=None)
@given(moment=st.datetimes())
def test_format_time_reads_back_and_agrees_with_strftime(moment):
    # Every text format_time writes parses back to its minute, so a trace
    # record the engine writes is one read_trace can read.
    text = format_time(moment)
    assert parse_time(text) == floor_to_minute(moment)
    if moment.year >= 1000:
        assert text == moment.strftime(TIME_FORMAT)


def test_equal_aware_datetimes_in_two_zones_format_their_own_wall_times():
    utc = datetime(2024, 5, 1, 9, 30, tzinfo=timezone.utc)
    paris = utc.astimezone(timezone(timedelta(hours=2)))
    assert utc == paris and hash(utc) == hash(paris)
    assert format_time(utc) == "2024-05-01T09:30"
    assert format_time(paris) == "2024-05-01T11:30"
    assert format_time(utc) == "2024-05-01T09:30"
    assert format_time(utc.replace(tzinfo=None)) == "2024-05-01T09:30"


def test_time_memos_stay_within_their_bound():
    start = datetime(2024, 5, 1)
    for minute in range(TIME_CACHE_ENTRIES + 50):
        moment = start + timedelta(minutes=minute)
        assert parse_time(format_time(moment)) == moment
    for memo in (kernel._format_naive, parse_time):
        assert memo.cache_info().currsize == memo.cache_info().maxsize == TIME_CACHE_ENTRIES


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_canonical_json_is_sorted_compact_raw_utf8_json(value):
    expected = json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    assert canonical_json(value) == expected


# canonical_json escapes U+0000-U+001F, '"' and '\\'; U+007F, U+2028 and
# the letters are written as they are.
ESCAPED = [*map(chr, range(0x20)), '"', "\\"]
UNESCAPED = ["a", "Z", " ", ",", ":", "[", "}", "\x7f", "\u2028", "\u00e9", "\u00df", "\u0416", "\u4e2d", "\U0001d538"]
PLAIN_TEXTS = st.text(st.sampled_from(UNESCAPED), max_size=6)
TEXTS = PLAIN_TEXTS | st.text(st.sampled_from(ESCAPED + UNESCAPED), max_size=6)
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | TEXTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(PLAIN_TEXTS, max_size=6)
    | st.lists(TEXTS, max_size=6)
    | st.lists(st.lists(PLAIN_TEXTS | TEXTS, max_size=4), max_size=3)
    | st.lists(TEXTS | st.integers() | st.none(), max_size=4)
    | st.dictionaries(TEXTS, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=30,
)


@oracle_settings(300)
@given(value=CONFIG_VALUES)
def test_the_config_encoder_matches_canonical_json_oracle(value):
    assert canonical_config_json(value) == canonical_json(value)


def test_canonical_json_escapes_exactly_the_characters_the_config_encoder_looks_for():
    assert sorted(kernel._ESCAPED) == sorted(ESCAPED) and len(set(ESCAPED)) == 34
    for char in ESCAPED:
        assert canonical_json(char) != f'"{char}"'
    # Every other code point, lone surrogates included, is written as itself.
    escaped = set(ESCAPED)
    others = "".join(chr(c) for c in range(0x110000) if chr(c) not in escaped)
    assert canonical_json(others) == f'"{others}"'


def test_the_config_encoder_joins_an_escape_free_string_list_whole(monkeypatch):
    encoded = []
    real = kernel.canonical_json
    monkeypatch.setattr(kernel, "canonical_json", lambda obj: encoded.append(obj) or real(obj))
    plain = [f"memory {i}: caf\u00e9 \u2028 \x7f" for i in range(1000)]
    quoted = ["one", 'she said "hi"', "three"]
    value = {"agents": [{"initial_memories": plain}, {"initial_memories": quoted}], "seed": 1}
    assert canonical_config_json(value) == real(value)
    # The keys and the seed one at a time, the list with a quote whole, and
    # the escape-free list never.
    assert encoded == ["agents", "initial_memories", "initial_memories", quoted, "seed", 1]

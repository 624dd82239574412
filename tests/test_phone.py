from __future__ import annotations

from datetime import datetime

import pytest

from gabm.agent import GenerativeAgent
from gabm.errors import ConfigError
from gabm.game_master import GameMaster
from gabm.kernel import GameClock
from gabm.model import _CHOICE_REPAIR, ScriptedModel, ScriptRule
from gabm.phone import (
    AppActionDescriptor,
    CalendarApp,
    ParamDescriptor,
    PhoneUniverse,
    SceneTrigger,
    deliver_notifications,
    parse_param_value,
    render_app_catalog,
    run_phone_scene,
    translate_action,
)

from conftest import memory_texts

T0 = datetime(2024, 5, 1, 9, 0)


def test_param_descriptor_rejects_unknown_kind():
    for kind in ("blob", "integer", "decimal"):
        with pytest.raises(ValueError):
            ParamDescriptor("x", kind)


def test_catalog_rendering_lists_every_action():
    catalog = render_app_catalog("Alice", [CalendarApp()])
    assert catalog.startswith("Apps installed on Alice's phone:")
    assert "calendar: Keeps track of meetings." in catalog
    assert "add_meeting(title: text, participant: text, when: datetime)" in catalog
    assert "check_calendar()" in catalog
    assert render_app_catalog("Bob", []) == "Bob's phone has no apps installed."


@pytest.mark.parametrize(
    "raw,kind,expected",
    [
        ("  buy milk  ", "text", "buy milk"),
        ("2024-05-01T09:00", "datetime", datetime(2024, 5, 1, 9, 0)),
        ("TODAY at 0:05", "datetime", datetime(2024, 5, 1, 0, 5)),
        ("tomorrow at 23:59", "datetime", datetime(2024, 5, 2, 23, 59)),
        ("2024-06-01T15:30 sharp", "datetime", datetime(2024, 6, 1, 15, 30)),
        ("today at 14:00", "datetime", datetime(2024, 5, 1, 14, 0)),
        ("Tomorrow at 9:15", "datetime", datetime(2024, 5, 2, 9, 15)),
    ],
)
def test_parse_param_value_table(raw, kind, expected):
    assert parse_param_value(raw, kind, now=T0) == expected


@pytest.mark.parametrize(
    "raw,kind,now",
    [
        pytest.param(raw, kind, now, id=f"{raw}-{kind}")
        for raw, kind, now in [
            ("", "text", T0),
            ("   ", "text", T0),
            ("sometime soon", "datetime", T0),
            ("today at 25:00", "datetime", T0),
            ("tomorrow at 12:61", "datetime", T0),
            # No day follows date.max; this used to raise a raw OverflowError.
            ("tomorrow at 10:00", "datetime", datetime(9999, 12, 31, 9, 0)),
        ]
    ],
)
def test_parse_param_value_rejects_unusable(raw, kind, now):
    with pytest.raises(ValueError):
        parse_param_value(raw, kind, now=now)


def test_calendar_add_check_remove_and_notification():
    app = CalendarApp()
    universe = PhoneUniverse()
    reply = app.do_add_meeting("Alice", universe, title="sync", participant="Bob", when=datetime(2024, 5, 2, 10, 0))
    assert reply == "Added meeting 'sync' with Bob at 2024-05-02T10:00."
    assert universe.pending == {"Bob": ["New meeting 'sync' with Alice at 2024-05-02T10:00."]}
    assert app.do_check_calendar("Alice", universe) == "Meetings: 2024-05-02T10:00: 'sync' with Alice, Bob"
    assert app.do_remove_meeting("Alice", universe, title="sync") == "Removed 1 meeting(s) titled 'sync'."
    assert app.do_check_calendar("Alice", universe) == "The calendar is empty."
    assert app.do_remove_meeting("Alice", universe, title="sync") == "No meeting titled 'sync' found."


def test_self_meeting_queues_no_notification():
    app = CalendarApp()
    universe = PhoneUniverse()
    app.do_add_meeting("Alice", universe, title="me time", participant="Alice", when=T0)
    assert universe.pending == {}
    assert app.meetings[0].participants == ("Alice",)


def test_invoke_dispatches_by_name_and_rejects_unknown():
    app = CalendarApp()
    assert app.invoke("check_calendar", "Alice", PhoneUniverse(), {}) == "The calendar is empty."
    with pytest.raises(ConfigError):
        app.invoke("explode", "Alice", PhoneUniverse(), {})


def test_notify_delivers_each_notification_exactly_once_in_push_order():
    model = ScriptedModel()
    alice = GenerativeAgent("Alice", model)
    bob = GenerativeAgent("Bob", model)
    gm = GameMaster(model=model, players=[alice, bob], clock=GameClock(T0), phones=PhoneUniverse())
    gm.phones.notify("Bob", "first")
    gm.phones.notify("Alice", "hers")
    gm.phones.notify("Bob", "second")
    assert deliver_notifications(gm, "Bob") == 2
    assert deliver_notifications(gm, "Bob") == 0
    assert deliver_notifications(gm, "Alice") == 1
    assert deliver_notifications(gm, "Alice") == 0
    assert memory_texts(bob.memory) == ["first", "second"]
    assert memory_texts(alice.memory) == ["hers"]
    assert gm.phones.pending == {}


def test_deliver_notifications_lands_as_observations():
    model = ScriptedModel()
    bob = GenerativeAgent("Bob", model)
    gm = GameMaster(model=model, players=[bob], clock=GameClock(T0), phones=PhoneUniverse())
    gm.phones.notify("Bob", "your package arrived")
    count = deliver_notifications(gm, "Bob")
    assert count == 1
    assert memory_texts(bob.memory) == ["your package arrived"]
    assert deliver_notifications(gm, "Bob") == 0


def test_notifications_arrive_at_next_pre_act_only_for_recipient():
    model = ScriptedModel(default_response="waits")
    alice = GenerativeAgent("Alice", model)
    bob = GenerativeAgent("Bob", model)
    universe = PhoneUniverse()
    gm = GameMaster(model=model, players=[alice, bob], clock=GameClock(T0), phones=universe)
    universe.notify("Bob", "ping")
    gm.pre_act_observe(alice)
    assert memory_texts(alice.memory) == []
    assert memory_texts(bob.memory) == []
    gm.pre_act_observe(bob)
    assert memory_texts(bob.memory) == ["ping"]
    gm.pre_act_observe(bob)
    assert memory_texts(bob.memory) == ["ping"]  # delivered exactly once


def universe_with_phone(owner="Alice", **scene) -> PhoneUniverse:
    return PhoneUniverse(phones={owner: [CalendarApp()]}, **scene)


def test_translate_action_happy_path(calls):
    universe = universe_with_phone()
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="Which app action", response="calendar.add_meeting"),
            ScriptRule(contains="parameter 'title'", response="lunch"),
            ScriptRule(contains="parameter 'participant'", response="Bob"),
            ScriptRule(contains="parameter 'when'", response="tomorrow at 12:30"),
        ]
    )
    result = translate_action(universe, "Alice", "set up lunch with Bob", model, now=T0)
    assert result == "Added meeting 'lunch' with Bob at 2024-05-02T12:30."
    (meeting,) = universe.phones["Alice"][0].meetings
    assert (meeting.title, meeting.participants, meeting.when) == (
        "lunch",
        ("Alice", "Bob"),
        datetime(2024, 5, 2, 12, 30),
    )
    assert [c.caller for c in calls] == [
        "phone:translate:choose",
        "phone:translate:param:title",
        "phone:translate:param:participant",
        "phone:translate:param:when",
    ]
    choose_prompt = calls[0].prompt
    assert "Alice wants to: set up lunch with Bob" in choose_prompt
    assert "Apps installed on Alice's phone:" in choose_prompt
    assert universe.pending == {"Bob": ["New meeting 'lunch' with Alice at 2024-05-02T12:30."]}


def test_translate_action_no_matching_app(calls):
    universe = universe_with_phone()
    notes: list[str] = []
    model = ScriptedModel(default_response="order a pizza")
    assert translate_action(universe, "Alice", "fly a kite", model, now=T0, note=notes.append) is None
    assert notes == ["no suitable app"]
    assert len(calls) == 4  # one choice + three repairs


def test_translate_action_param_retry_recovers(calls):
    universe = universe_with_phone()
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="Which app action", response="calendar.remove_meeting"),
            ScriptRule(contains_all=("parameter 'title'", "Answer with just the text value."), response="standup"),
            ScriptRule(contains="parameter 'title'", response="   "),
        ]
    )
    result = translate_action(universe, "Alice", "cancel the standup", model, now=T0)
    # The title parsed on its repair ask and reached the app.
    assert [c.caller for c in calls] == [
        "phone:translate:choose",
        "phone:translate:param:title",
        "phone:translate:param:title",
    ]
    assert calls[2].prompt == calls[1].prompt + "\nAnswer with just the text value."
    assert result == "No meeting titled 'standup' found."


def test_translate_action_param_exhaustion_skips():
    universe = universe_with_phone()
    notes: list[str] = []
    model = ScriptedModel(
        rules=[ScriptRule(contains="Which app action", response="calendar.add_meeting")],
        default_response="whenever works",  # never a datetime, never empty text
    )
    result = translate_action(
        universe, "Alice", "plan something", model, now=T0, note=notes.append
    )
    assert result is None
    assert notes == ["parameter 'when' never parsed; invocation skipped"]


def test_translate_action_empty_phone():
    universe = PhoneUniverse(phones={"Alice": []})
    notes: list[str] = []
    assert translate_action(universe, "Alice", "anything", ScriptedModel(), now=T0, note=notes.append) is None
    assert notes == ["no suitable app (phone has no apps)"]


def run_scene(model: ScriptedModel, universe: PhoneUniverse | None = None, trigger: str = ""):
    """Run Alice's phone scene inside an open turn record; returns the
    universe, Alice, the game master and the finished record."""
    universe = universe or universe_with_phone("Alice")
    alice = GenerativeAgent("Alice", model)
    gm = GameMaster(model=model, players=[alice], clock=GameClock(T0, step_minutes=60), phones=universe)
    record = gm.begin_record("turn", 0, "Alice")
    try:
        assert run_phone_scene(gm, "Alice", trigger=trigger) is None
    finally:
        gm.finish_record(record)
    return universe, alice, gm, record


def test_phone_scene_done_immediately_means_zero_invocations():
    model = ScriptedModel(rules=[ScriptRule(contains="finished using the phone?", response="yes")])
    universe, alice, _, record = run_scene(model)
    assert [c.caller for c in record.model_calls] == ["phone:scene:done"]
    assert record.notes == ["scene start: phone: Alice", "scene end: phone: Alice"]
    assert memory_texts(alice.memory) == []
    assert universe.phones["Alice"][0].meetings == []


def test_phone_scene_single_action_then_done():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains_all=("finished using the phone?", "The calendar is empty."), response="yes"),
            ScriptRule(contains="finished using the phone?", response="no"),
            ScriptRule(contains="do on the phone right now", response="check my calendar"),
            ScriptRule(contains="Which app action", response="calendar.check_calendar"),
        ]
    )
    _, alice, _, record = run_scene(model)
    assert [c.caller for c in record.model_calls] == [
        "phone:scene:done",
        "agent:Alice:act",
        "phone:translate:choose",
        "phone:scene:done",
    ]
    assert record.model_calls[0].prompt.startswith("Alice is using the phone. Activity so far:\n(nothing yet)\n")
    assert "Alice: check my calendar\nPhone: The calendar is empty.\n" in record.model_calls[-1].prompt
    assert "The calendar is empty." in memory_texts(alice.memory)
    assert "check my calendar" in memory_texts(alice.memory)


def test_phone_scene_untranslatable_action_ends_scene():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="finished using the phone?", response="no"),
            ScriptRule(contains="do on the phone right now", response="juggle oranges"),
        ],
        default_response="nonsense",
    )
    _, alice, _, record = run_scene(model)
    assert record.notes == [
        "scene start: phone: Alice",
        "phone scene: no suitable app",
        "scene end: phone: Alice",
    ]
    assert memory_texts(alice.memory)[-1] == "The phone has no suitable app for that."
    assert [c.caller for c in record.model_calls].count("phone:scene:done") == 1


def test_phone_scene_hits_step_cap():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="finished using the phone?", response="no"),
            ScriptRule(contains="do on the phone right now", response="check the calendar"),
            ScriptRule(contains="Which app action", response="calendar.check_calendar"),
        ]
    )
    universe = universe_with_phone("Alice")
    universe.max_actions = 3
    _, alice, _, record = run_scene(model, universe)
    assert record.notes[-2:] == ["phone scene: step cap reached", "scene end: phone: Alice"]
    bank = alice.memory
    results = [bank.timestamps[i] for i, text in enumerate(bank.texts) if text == "The calendar is empty."]
    # The scene's own clock ticks one minute after each invocation.
    assert results == [datetime(2024, 5, 1, 9, minute) for minute in range(3)]


def test_phone_scene_requires_a_phone():
    # Alice has no phone in a game with phones, nor in one without.
    for phones in (PhoneUniverse(), None):
        model = ScriptedModel()
        alice = GenerativeAgent("Alice", model)
        gm = GameMaster(model=model, players=[alice], clock=GameClock(T0), phones=phones)
        record = gm.begin_record("turn", 0, "Alice")
        with pytest.raises(ConfigError, match="has no phone"):
            run_phone_scene(gm, "Alice")
        # The scene was refused before any marker was written or time charged.
        assert record.notes == [] and record.model_calls == []
        assert gm.clock.current_time == T0


def test_run_phone_scene_brackets_and_charges_parent_clock():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains_all=("finished using the phone?", "The calendar is empty."), response="yes"),
            ScriptRule(contains="finished using the phone?", response="no"),
            ScriptRule(contains="do on the phone right now", response="look at the calendar"),
            ScriptRule(contains="Which app action", response="calendar.check_calendar"),
        ],
        default_response="waits",
    )
    universe = universe_with_phone("Alice", minutes=20)
    _, alice, gm, record = run_scene(model, universe, trigger="Alice pulled out her phone.")
    assert record.notes[0] == "scene start: phone: Alice"
    assert record.notes[-1] == "scene end: phone: Alice"
    assert "Activity so far:\nTrigger: Alice pulled out her phone.\n" in record.model_calls[0].prompt
    assert "The calendar is empty." in memory_texts(alice.memory)
    assert gm.clock.current_time == datetime(2024, 5, 1, 9, 20)
    assert gm.clock.step_index == 0


def test_scene_trigger_fires_only_for_phone_events_by_phone_owners():
    # Alice's event involves her phone; Bob's does not.
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="What would Alice", response="texts Bob about dinner"),
            ScriptRule(contains="What would Bob", response="reads a paperback"),
            ScriptRule(contains_all=("digital device", "texted"), response="yes"),
            ScriptRule(contains="digital device", response="no"),
            ScriptRule(contains="finished using the phone?", response="yes"),
            ScriptRule(contains="texts Bob", response="Alice texted Bob."),
            ScriptRule(contains="reads a paperback", response="Bob read quietly."),
        ],
        default_response="pass",
    )
    universe = universe_with_phone("Alice", minutes=15)
    alice = GenerativeAgent("Alice", model)
    bob = GenerativeAgent("Bob", model)
    gm = GameMaster(
        model=model,
        players=[alice, bob],
        clock=GameClock(T0, step_minutes=60),
        components=[SceneTrigger()],
        phones=universe,
    )
    result = gm.run_episode(max_steps=1)
    by_actor = {record.actor: record for record in result.trace}
    assert by_actor["Alice"].notes == ["scene start: phone: Alice", "scene end: phone: Alice"]
    assert "phone:scene:done" in [c.caller for c in by_actor["Alice"].model_calls]
    assert by_actor["Bob"].notes == []
    assert "phone:scene:done" not in [c.caller for c in by_actor["Bob"].model_calls]


CAPPED_SCENE = [
    ScriptRule(contains="Which app action", response="calendar.check_calendar"),
]
UNPARSED_WHEN = [
    ScriptRule(contains="Which app action", response="calendar.add_meeting"),
    ScriptRule(contains="parameter 'title'", response="lunch"),
    ScriptRule(contains="parameter 'participant'", response="Bob"),
]


@pytest.mark.parametrize(
    "rules,note",
    [
        (CAPPED_SCENE, "phone scene: step cap reached"),
        (UNPARSED_WHEN, "phone scene: parameter 'when' never parsed; invocation skipped"),
    ],
    ids=["step-cap", "unparsed-parameter"],
)
def test_phone_scene_notes_reach_the_turn_record(rules, note):
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="digital device", response="yes"),
            ScriptRule(contains="What event results", response="Alice opened her phone."),
            ScriptRule(contains="finished using the phone?", response="no"),
            *rules,
        ],
        default_response="whenever works",  # never a datetime
    )
    universe = universe_with_phone("Alice", max_actions=2)
    gm = GameMaster(
        model=model,
        players=[GenerativeAgent("Alice", model)],
        clock=GameClock(T0),
        components=[SceneTrigger()],
        phones=universe,
    )
    result = gm.run_episode(max_steps=1)
    assert result.reason == "max-steps"
    notes = result.trace[0].notes
    start = notes.index("scene start: phone: Alice")
    assert note in notes[start:notes.index("scene end: phone: Alice")]


def test_scene_trigger_repairs_an_unusable_detect_answer_as_it_is_applied():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains=_CHOICE_REPAIR, response="yes"),
            ScriptRule(contains="digital device", response="perhaps"),
            ScriptRule(contains="What event results", response="Alice opened her phone."),
            ScriptRule(contains="finished using the phone?", response="yes"),
        ],
        default_response="taps at the screen",
    )
    gm = GameMaster(
        model=model,
        players=[GenerativeAgent("Alice", model)],
        clock=GameClock(T0),
        components=[SceneTrigger()],
        phones=universe_with_phone("Alice"),
    )
    result = gm.run_episode(max_steps=1)
    assert result.reason == "max-steps"
    detects = [c for c in result.trace[0].model_calls if c.caller == "phone:detect"]
    assert [c.response for c in detects] == ["perhaps", "yes"]
    assert detects[1].prompt == detects[0].prompt + "\n" + _CHOICE_REPAIR
    assert "scene start: phone: Alice" in result.trace[0].notes


def test_scene_trigger_skips_actor_without_phone():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="digital device", response="yes"),
            ScriptRule(contains="What event results", response="Bob fiddled with his phone."),
        ],
        default_response="taps at the screen",
    )
    # Bob has no phone in a game with phones, nor in one without.
    for phones in (universe_with_phone("Alice"), None):
        gm = GameMaster(
            model=model,
            players=[GenerativeAgent("Bob", model)],
            clock=GameClock(T0),
            components=[SceneTrigger()],
            phones=phones,
        )
        result = gm.run_episode(max_steps=1)
        assert result.trace[0].event == "Bob fiddled with his phone."
        assert result.trace[0].notes == ["Bob has no phone; scene skipped"]
        assert "phone:scene:done" not in [c.caller for c in result.trace[0].model_calls]


def test_app_state_is_shared_across_scenes_and_phones():
    app = CalendarApp()
    universe = PhoneUniverse(phones={"Alice": [app], "Bob": [app]})
    app.invoke("add_meeting", "Alice", universe, {"title": "sync", "participant": "Bob", "when": T0})
    assert "sync" in universe.phones["Bob"][0].invoke("check_calendar", "Bob", universe, {})
    assert universe.pending == {"Bob": ["New meeting 'sync' with Alice at 2024-05-01T09:00."]}


def scene_trigger_turn(detect_answer: str):
    """One turn by Alice with her phone, whose event is her opening it;
    the phone-detection ask is answered ``detect_answer``."""
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="digital device", response=detect_answer),
            ScriptRule(contains="What event results", response="Alice opened her phone."),
            ScriptRule(contains="finished using the phone?", response="yes"),
        ],
        default_response="taps at the screen",
    )
    gm = GameMaster(
        model=model,
        players=[GenerativeAgent("Alice", model)],
        clock=GameClock(T0),
        components=[SceneTrigger()],
        phones=universe_with_phone("Alice"),
    )
    (record,) = gm.run_episode(max_steps=1).trace
    return record


def test_scene_trigger_detection_paths():
    played = scene_trigger_turn("yes")
    assert played.notes == ["scene start: phone: Alice", "scene end: phone: Alice"]
    assert [c.prompt for c in played.model_calls if c.caller == "phone:detect"] == [
        "Event: Alice opened her phone.\n"
        "Does this event involve someone using a phone, an app, or another digital device?"
    ]
    assert scene_trigger_turn("no").notes == []
    garbage = scene_trigger_turn("banana")
    assert garbage.notes == ["phone detection answer unusable; assuming no"]
    assert "phone:scene:done" not in [c.caller for c in garbage.model_calls]

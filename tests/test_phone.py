from __future__ import annotations

from datetime import datetime
from decimal import Decimal

import pytest

from gabm.agent import GenerativeAgent
from gabm.errors import ConfigError
from gabm.game_master import GameMaster
from gabm.kernel import GameClock
from gabm.model import CallRecorder, ScriptedModel, ScriptRule
from gabm.phone import (
    AppActionDescriptor,
    AppContext,
    CalendarApp,
    NotificationHub,
    ParamDescriptor,
    Phone,
    PhoneScene,
    PhoneUniverse,
    deliver_notifications,
    detect_phone_event,
    parse_param_value,
    render_app_catalog,
    run_phone_scene,
    translate_action,
)

T0 = datetime(2024, 5, 1, 9, 0)


def test_param_descriptor_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ParamDescriptor("x", "blob")


def test_catalog_rendering_lists_every_action():
    app = CalendarApp()
    phone = Phone(owner="Alice", apps=[app])
    catalog = render_app_catalog(phone)
    assert catalog.startswith("Apps installed on Alice's phone:")
    assert "calendar: Keeps track of meetings." in catalog
    assert "add_meeting(title: text, participant: text, when: datetime)" in catalog
    assert "check_calendar()" in catalog
    assert render_app_catalog(Phone(owner="Bob")) == "Bob's phone has no apps installed."


@pytest.mark.parametrize(
    "raw,kind,expected",
    [
        ("  buy milk  ", "text", "buy milk"),
        ("roughly 3 people", "integer", 3),
        ("-2", "integer", -2),
        ("about 4.75 coins", "decimal", Decimal("4.75")),
        ("2024-06-01T15:30 sharp", "datetime", datetime(2024, 6, 1, 15, 30)),
        ("today at 14:00", "datetime", datetime(2024, 5, 1, 14, 0)),
        ("Tomorrow at 9:15", "datetime", datetime(2024, 5, 2, 9, 15)),
    ],
)
def test_parse_param_value_table(raw, kind, expected):
    assert parse_param_value(raw, kind, now=T0) == expected


@pytest.mark.parametrize(
    "raw,kind",
    [
        ("", "text"),
        ("   ", "text"),
        ("no digits", "integer"),
        ("nothing numeric", "decimal"),
        ("sometime soon", "datetime"),
        ("today at 25:00", "datetime"),
        ("tomorrow at 12:61", "datetime"),
    ],
)
def test_parse_param_value_rejects_unusable(raw, kind):
    with pytest.raises(ValueError):
        parse_param_value(raw, kind, now=T0)


def test_parse_param_value_unknown_kind():
    with pytest.raises(ValueError):
        parse_param_value("x", "blob", now=T0)


def test_calendar_add_check_remove_and_notification():
    app = CalendarApp()
    hub = NotificationHub()
    ctx = AppContext(owner="Alice", now=T0, hub=hub)
    reply = app.do_add_meeting(ctx, title="sync", participant="Bob", when=datetime(2024, 5, 2, 10, 0))
    assert reply == "Added meeting 'sync' with Bob at 2024-05-02T10:00."
    assert hub.pop_for("Alice") == []
    assert hub.pop_for("Bob") == ["New meeting 'sync' with Alice at 2024-05-02T10:00."]
    assert hub.pop_for("Bob") == []
    assert app.do_check_calendar(ctx) == "Meetings: 2024-05-02T10:00: 'sync' with Alice, Bob"
    assert app.do_remove_meeting(ctx, title="sync") == "Removed 1 meeting(s) titled 'sync'."
    assert app.do_check_calendar(ctx) == "The calendar is empty."
    assert app.do_remove_meeting(ctx, title="sync") == "No meeting titled 'sync' found."


def test_self_meeting_queues_no_notification():
    app = CalendarApp()
    hub = NotificationHub()
    ctx = AppContext(owner="Alice", now=T0, hub=hub)
    app.do_add_meeting(ctx, title="me time", participant="Alice", when=T0)
    assert hub.pop_for("Alice") == []
    assert app.store.meetings[0].participants == ("Alice",)


def test_invoke_dispatches_by_name_and_rejects_unknown():
    app = CalendarApp()
    ctx = AppContext(owner="Alice", now=T0, hub=NotificationHub())
    assert app.invoke("check_calendar", ctx, {}) == "The calendar is empty."
    with pytest.raises(ConfigError):
        app.invoke("explode", ctx, {})


def test_hub_delivers_each_notification_exactly_once():
    hub = NotificationHub()
    hub.push("Bob", "first")
    hub.push("Alice", "hers")
    hub.push("Bob", "second")
    assert hub.pop_for("Bob") == ["first", "second"]
    assert hub.pop_for("Bob") == []
    assert hub.pop_for("Alice") == ["hers"]
    assert hub.pop_for("Alice") == []


def test_deliver_notifications_lands_as_observations():
    model = ScriptedModel()
    bob = GenerativeAgent("Bob", model)
    gm = GameMaster(model=model, players=[bob], clock=GameClock(T0))
    hub = NotificationHub()
    hub.push("Bob", "your package arrived")
    count = deliver_notifications(hub, gm, "Bob")
    assert count == 1
    assert bob.memory.texts() == ["your package arrived"]
    assert deliver_notifications(hub, gm, "Bob") == 0


def test_notifications_arrive_at_next_pre_act_only_for_recipient():
    model = ScriptedModel(default_response="waits")
    alice = GenerativeAgent("Alice", model)
    bob = GenerativeAgent("Bob", model)
    universe = PhoneUniverse()
    gm = GameMaster(model=model, players=[alice, bob], clock=GameClock(T0))
    universe.attach(gm)
    universe.hub.push("Bob", "ping")
    gm.pre_act_observe(alice)
    assert alice.memory.texts() == []
    assert bob.memory.texts() == []
    gm.pre_act_observe(bob)
    assert bob.memory.texts() == ["ping"]
    gm.pre_act_observe(bob)
    assert bob.memory.texts() == ["ping"]  # delivered exactly once


def universe_with_phone(owner="Alice") -> tuple[PhoneUniverse, Phone]:
    universe = PhoneUniverse(apps=[CalendarApp()])
    phone = universe.give_phone(owner, ["calendar"])
    return universe, phone


def test_universe_registration_rules():
    universe, _ = universe_with_phone()
    with pytest.raises(ConfigError):
        universe.register_app(CalendarApp())
    with pytest.raises(ConfigError):
        universe.give_phone("Alice", ["calendar"])
    with pytest.raises(ConfigError):
        universe.give_phone("Bob", ["spreadsheet"])
    assert universe.phone_for("Nobody") is None


def test_translate_action_happy_path():
    universe, phone = universe_with_phone()
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="Which app action", response="calendar.add_meeting"),
            ScriptRule(contains="parameter 'title'", response="lunch"),
            ScriptRule(contains="parameter 'participant'", response="Bob"),
            ScriptRule(contains="parameter 'when'", response="tomorrow at 12:30"),
        ]
    )
    recorder = CallRecorder()
    model.set_recorder(recorder)
    invocation = translate_action(universe, phone, "set up lunch with Bob", model, now=T0)
    assert invocation is not None
    assert (invocation.app, invocation.action) == ("calendar", "add_meeting")
    assert invocation.args == {
        "title": "lunch",
        "participant": "Bob",
        "when": datetime(2024, 5, 2, 12, 30),
    }
    assert invocation.result == "Added meeting 'lunch' with Bob at 2024-05-02T12:30."
    assert [c.caller for c in recorder.calls] == [
        "phone:translate:choose",
        "phone:translate:param:title",
        "phone:translate:param:participant",
        "phone:translate:param:when",
    ]
    choose_prompt = recorder.calls[0].prompt
    assert "Alice wants to: set up lunch with Bob" in choose_prompt
    assert "Apps installed on Alice's phone:" in choose_prompt
    assert universe.hub.pop_for("Bob") == ["New meeting 'lunch' with Alice at 2024-05-02T12:30."]


def test_translate_action_no_matching_app():
    universe, phone = universe_with_phone()
    notes: list[str] = []
    model = ScriptedModel(default_response="order a pizza")
    assert translate_action(universe, phone, "fly a kite", model, now=T0, note=notes.append) is None
    assert notes == ["no suitable app"]
    assert model.call_count == 4  # one choice + three repairs


def test_translate_action_param_retry_recovers():
    universe, phone = universe_with_phone()
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="Which app action", response="calendar.remove_meeting"),
            ScriptRule(contains="parameter 'title'", response="   ", max_uses=1),
            ScriptRule(contains="parameter 'title'", response="standup"),
        ]
    )
    invocation = translate_action(universe, phone, "cancel the standup", model, now=T0)
    assert invocation is not None
    assert invocation.args == {"title": "standup"}
    assert invocation.result == "No meeting titled 'standup' found."


def test_translate_action_param_exhaustion_skips():
    universe, phone = universe_with_phone()
    notes: list[str] = []
    model = ScriptedModel(
        rules=[ScriptRule(contains="Which app action", response="calendar.add_meeting")],
        default_response="whenever works",  # never a datetime, never empty text
    )
    result = translate_action(
        universe, phone, "plan something", model, now=T0, note=notes.append
    )
    assert result is None
    assert notes == ["parameter 'when' never parsed; invocation skipped"]


def test_translate_action_empty_phone():
    universe = PhoneUniverse()
    phone = universe.give_phone("Alice", [])
    notes: list[str] = []
    assert translate_action(universe, phone, "anything", ScriptedModel(), now=T0, note=notes.append) is None
    assert notes == ["no suitable app (phone has no apps)"]


def test_detect_phone_event_paths():
    assert detect_phone_event("", ScriptedModel()) is False
    yes_model = ScriptedModel(rules=[ScriptRule(contains="digital device", response="yes")])
    assert detect_phone_event("Alice checked her phone.", yes_model) is True
    notes: list[str] = []
    garbage = ScriptedModel(default_response="banana")
    assert detect_phone_event("something", garbage, note=notes.append) is False
    assert notes == ["phone detection answer unusable; assuming no"]


def scene_fixture(model: ScriptedModel):
    universe, _ = universe_with_phone("Alice")
    alice = GenerativeAgent("Alice", model)
    clock = GameClock(T0, step_minutes=1)
    scene = PhoneScene(owner=alice, universe=universe, clock=clock, model=model)
    return universe, alice, clock, scene


def test_phone_scene_done_immediately_means_zero_invocations():
    model = ScriptedModel(rules=[ScriptRule(contains="finished using the phone?", response="yes")])
    universe, alice, clock, scene = scene_fixture(model)
    memories = scene.run()
    assert memories == [
        "Alice started using the phone.",
        "Alice finished using the phone.",
    ]
    assert clock.current_time == T0  # no action, no child ticks
    app = universe.apps["calendar"]
    assert app.store.meetings == []


def test_phone_scene_single_action_then_done():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="finished using the phone?", response="no", max_uses=1),
            ScriptRule(contains="finished using the phone?", response="yes"),
            ScriptRule(contains="do on the phone right now", response="check my calendar"),
            ScriptRule(contains="Which app action", response="calendar.check_calendar"),
        ]
    )
    universe, alice, clock, scene = scene_fixture(model)
    memories = scene.run()
    assert memories == [
        "Alice started using the phone.",
        "Phone: The calendar is empty.",
        "Alice finished using the phone.",
    ]
    assert clock.current_time == datetime(2024, 5, 1, 9, 1)
    assert "The calendar is empty." in alice.memory.texts()
    assert "check my calendar" in alice.memory.texts()


def test_phone_scene_untranslatable_action_ends_scene():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="finished using the phone?", response="no"),
            ScriptRule(contains="do on the phone right now", response="juggle oranges"),
        ],
        default_response="nonsense",
    )
    _, alice, _, scene = scene_fixture(model)
    memories = scene.run()
    assert memories[-1] == "The phone has no suitable app for that."
    assert "The phone has no suitable app for that." in alice.memory.texts()


def test_phone_scene_hits_step_cap():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="finished using the phone?", response="no"),
            ScriptRule(contains="do on the phone right now", response="check the calendar"),
            ScriptRule(contains="Which app action", response="calendar.check_calendar"),
        ]
    )
    universe, alice, clock, scene = scene_fixture(model)
    universe.max_actions = 3
    memories = scene.run()
    assert memories[-1] == "The phone scene reached its step cap."
    assert memories.count("Phone: The calendar is empty.") == 3
    assert clock.current_time == datetime(2024, 5, 1, 9, 3)


def test_phone_scene_requires_a_phone():
    universe = PhoneUniverse()
    model = ScriptedModel()
    with pytest.raises(ConfigError):
        PhoneScene(
            owner=GenerativeAgent("Alice", model),
            universe=universe,
            clock=GameClock(T0),
            model=model,
        )


def test_run_phone_scene_brackets_and_charges_parent_clock():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="finished using the phone?", response="no", max_uses=1),
            ScriptRule(contains="finished using the phone?", response="yes"),
            ScriptRule(contains="do on the phone right now", response="look at the calendar"),
            ScriptRule(contains="Which app action", response="calendar.check_calendar"),
        ],
        default_response="waits",
    )
    universe = PhoneUniverse(apps=[CalendarApp()], scene_minutes=20)
    universe.give_phone("Alice", ["calendar"])
    alice = GenerativeAgent("Alice", model)
    gm = GameMaster(model=model, players=[alice], clock=GameClock(T0, step_minutes=60))
    universe.attach(gm)
    memories = run_phone_scene(gm, universe, "Alice", trigger="Alice pulled out her phone.")
    assert memories[0] == "Alice started using the phone."
    texts = gm.memory.texts()
    assert texts[0] == "[scene start: phone: Alice]"
    assert texts[-1] == "[scene end: phone: Alice]"
    assert "Phone: The calendar is empty." in texts
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
    from gabm.phone import SceneTrigger

    universe = PhoneUniverse(apps=[CalendarApp()], scene_minutes=15)
    universe.give_phone("Alice", ["calendar"])
    alice = GenerativeAgent("Alice", model)
    bob = GenerativeAgent("Bob", model)
    gm = GameMaster(
        model=model,
        players=[alice, bob],
        clock=GameClock(T0, step_minutes=60),
        components=[SceneTrigger(universe)],
    )
    universe.attach(gm)
    gm.run_episode(max_steps=1)
    texts = gm.memory.texts()
    assert "[scene start: phone: Alice]" in texts
    assert "Alice started using the phone." in texts
    assert not any("phone: Bob" in t for t in texts)


def test_scene_trigger_skips_actor_without_phone():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="digital device", response="yes"),
            ScriptRule(contains="What event results", response="Bob fiddled with his phone."),
        ],
        default_response="taps at the screen",
    )
    from gabm.phone import SceneTrigger

    universe = PhoneUniverse(apps=[CalendarApp()])
    bob = GenerativeAgent("Bob", model)
    gm = GameMaster(
        model=model,
        players=[bob],
        clock=GameClock(T0),
        components=[SceneTrigger(universe)],
    )
    universe.attach(gm)
    result = gm.run_episode(max_steps=1)
    assert any("has no phone; scene skipped" in n for n in result.trace[0].notes)
    assert gm.memory.texts() == ["Bob fiddled with his phone."]


def test_app_state_is_shared_across_scenes_and_phones():
    app = CalendarApp()
    universe = PhoneUniverse(apps=[app])
    universe.give_phone("Alice", ["calendar"])
    universe.give_phone("Bob", ["calendar"])
    ctx = AppContext(owner="Alice", now=T0, hub=universe.hub)
    app.do_add_meeting(ctx, title="sync", participant="Bob", when=T0)
    bob_phone = universe.phone_for("Bob")
    assert bob_phone is not None
    assert bob_phone.apps[0] is app
    bob_ctx = AppContext(owner="Bob", now=T0, hub=universe.hub)
    assert "sync" in app.do_check_calendar(bob_ctx)

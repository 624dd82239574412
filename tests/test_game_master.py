from __future__ import annotations

import random
import re
import threading
import time
from datetime import datetime, timedelta

import pytest

import gabm.model
from gabm.agent import IDENTITY_QUESTION, AgentComponent, GenerativeAgent, three_questions_components
from gabm.config import build, config_from_dict
from gabm.errors import BackendUnavailable, ConfigError
from gabm.game_master import (
    GameMaster,
    GMComponent,
    PhraseTerminator,
    spawn_nested_game,
    OBSERVERS_QUESTION,
    STATE_QUESTION,
)
from gabm.grounding import InventoryComponent
from gabm.kernel import ActionSpec, ClockMode, GameClock, OutputKind
from gabm.model import ScriptedModel, ScriptRule
from gabm.memory import MemoryBank
from gabm.phone import DETECT_PHONE_QUESTION, CalendarApp, PhoneUniverse, SceneTrigger
from gabm.trace import replay, run_built_scenario

from conftest import memory_texts

T0 = datetime(2024, 5, 1, 9, 0)


class LoggingModel(ScriptedModel):
    """Tags each completion in a shared log so call order can be asserted."""

    def __init__(self, log: list[str], **kwargs):
        super().__init__(**kwargs)
        self.log = log

    def _complete(self, prompt, max_chars):
        if STATE_QUESTION in prompt:
            self.log.append("call:state")
        elif "What event results" in prompt:
            self.log.append("call:outcome")
        elif OBSERVERS_QUESTION in prompt:
            self.log.append("call:observers")
        else:
            self.log.append("call:act")
        return super()._complete(prompt, max_chars)


class LoggingComponent(GMComponent):
    def __init__(self, name: str, log: list[str]):
        super().__init__(name)
        self.log = log

    def partial_state(self, player):
        self.log.append(f"{self.name}.partial_state({player})")
        return ""

    def state(self):
        self.log.append(f"{self.name}.state")
        return "steady"

    def answer_before_event(self, gm, cause, answer):
        self.log.append(f"{self.name}.before({answer})")

    def answer_after_event(self, gm, event, answer):
        self.log.append(f"{self.name}.after({answer})")


def make_gm(players=None, components=None, model=None, clock=None, **kwargs) -> GameMaster:
    model = model or ScriptedModel(default_response="nothing happened")
    if players is None:
        players = [GenerativeAgent("Alice", model), GenerativeAgent("Bob", model)]
    return GameMaster(
        model=model,
        players=players,
        clock=clock or GameClock(T0, step_minutes=60),
        components=components or [],
        **kwargs,
    )


def test_turn_sequence_follows_the_contract():
    log: list[str] = []
    model = LoggingModel(log, default_response="shrugs")
    first = LoggingComponent("first", log)
    second = LoggingComponent("second", log)
    player = GenerativeAgent("Alice", model)
    gm = make_gm(players=[player], components=[first, second], model=model)
    gm.run_episode(max_steps=1)
    assert log == [
        "first.partial_state(Alice)",
        "second.partial_state(Alice)",
        "call:act",
        "first.state",
        "second.state",
        # Components that asked nothing are still answered, with None.
        "first.before(None)",
        "second.before(None)",
        "call:state",
        "call:outcome",
        "call:observers",
        "first.after(None)",
        "second.after(None)",
        # end-of-episode grounded snapshot
        "first.state",
        "second.state",
    ]


def test_round_clock_mode_counts_rounds_not_turns():
    gm = make_gm(clock=GameClock(T0, step_minutes=60, mode=ClockMode.ADVANCE_PER_ROUND))
    result = gm.run_episode(max_steps=3)
    assert len(result.trace) == 6
    assert gm.clock.step_index == 3
    assert gm.clock.current_time == T0 + timedelta(hours=3)
    # Both turns of a round carry the same timestamp.
    by_step: dict[int, set[datetime]] = {}
    for record in result.trace:
        by_step.setdefault(record.step, set()).add(record.timestamp)
    assert all(len(stamps) == 1 for stamps in by_step.values())
    assert by_step[1] == {T0 + timedelta(hours=1)}


def test_player_clock_mode_advances_every_turn():
    gm = make_gm(clock=GameClock(T0, step_minutes=60, mode=ClockMode.ADVANCE_PER_PLAYER))
    result = gm.run_episode(max_steps=2)
    assert gm.clock.step_index == 4
    assert [r.timestamp for r in result.trace] == [T0 + timedelta(hours=i) for i in range(4)]


def test_turn_indices_are_global_and_monotonic():
    gm = make_gm()
    result = gm.run_episode(max_steps=3)
    assert [r.turn for r in result.trace] == list(range(6))
    assert [r.step for r in result.trace] == [0, 0, 1, 1, 2, 2]
    assert all(r.kind == "turn" for r in result.trace)


def test_initiative_reshuffles_per_round_and_is_seed_deterministic():
    def actor_sequence(seed: int) -> list[str]:
        model = ScriptedModel(default_response="waits")
        players = [GenerativeAgent(n, model) for n in ("Alice", "Bob", "Caro", "Dan")]
        gm = make_gm(players=players, model=model, rng=random.Random(seed))
        result = gm.run_episode(max_steps=6)
        return [r.actor for r in result.trace]

    assert actor_sequence(11) == actor_sequence(11)
    assert actor_sequence(11) != actor_sequence(12)
    rounds = [actor_sequence(11)[i : i + 4] for i in range(0, 24, 4)]
    assert len({tuple(r) for r in rounds}) > 1  # actually reshuffled
    for r in rounds:
        assert sorted(r) == ["Alice", "Bob", "Caro", "Dan"]


def test_player_list_is_not_mutated_by_shuffling():
    gm = make_gm()
    names_before = [p.name for p in gm.players]
    gm.run_episode(max_steps=3)
    assert [p.name for p in gm.players] == names_before


def test_record_carries_states_prompts_action_event_and_calls():
    class Weather(GMComponent):
        def state(self):
            return "raining"

    model = ScriptedModel(default_response="opened an umbrella")
    player = GenerativeAgent("Alice", model)
    gm = make_gm(players=[player], components=[Weather("weather")], model=model)
    result = gm.run_episode(max_steps=1)
    record = result.trace[0]
    assert record.gm_states == {"weather": "raining"}
    assert record.action is not None and record.action.text == "opened an umbrella"
    assert record.event == "opened an umbrella"
    assert record.model_calls[0].prompt == player.context_of_action(gm.action_spec, record.timestamp)
    callers = [c.caller for c in record.model_calls]
    assert callers == [
        "agent:Alice:act",
        "gm:resolve:state",
        "gm:resolve:outcome",
        "gm:resolve:observers",
    ]


def test_event_statements_go_into_the_turn_records():
    model = ScriptedModel(
        rules=[ScriptRule(contains="What event results", response="Alice tripped over the cat.")],
        default_response="walks",
    )
    gm = make_gm(players=[GenerativeAgent("Alice", model)], model=model)
    result = gm.run_episode(max_steps=2)
    assert [record.event for record in result.trace] == [
        "Alice tripped over the cat.",
        "Alice tripped over the cat.",
    ]


def test_partial_states_reach_the_player_before_acting():
    class Whisper(GMComponent):
        def partial_state(self, player):
            return f"psst, {player}"

    model = ScriptedModel(default_response="listens")
    player = GenerativeAgent("Alice", model)
    gm = make_gm(players=[player], components=[Whisper("whisper")], model=model)
    result = gm.run_episode(max_steps=1)
    assert memory_texts(player.memory)[0] == "psst, Alice"
    observation = result.trace[0].observations[0]
    assert (observation.recipient, observation.text) == ("Alice", "psst, Alice")


def test_observer_lines_fan_out_through_observation_delivery():
    model = ScriptedModel(
        rules=[
            ScriptRule(
                contains=OBSERVERS_QUESTION,
                response="- Bob: Alice waved at him\nZed: sees nothing\nnot-a-line\nNONE",
            )
        ],
        default_response="Alice waved.",
    )
    alice = GenerativeAgent("Alice", model)
    bob = GenerativeAgent("Bob", model)

    def turn(gm, step):
        record = gm.begin_record("turn", step, "Alice")
        gm.update_from_player(alice.act(gm.action_spec, gm.clock.current_time))
        gm.finish_record(record)
        return record

    # With no component at all, the game master delivers the lines itself.
    record = turn(make_gm(players=[alice, bob], components=[], model=model), 0)
    assert memory_texts(bob.memory) == ["Alice waved at him"]
    assert [(o.recipient, o.text) for o in record.observations] == [("Bob", "Alice waved at him")]
    assert record.notes == ["observer line ignored (unknown player): Zed: sees nothing"]
    assert record.gm_states == {}

    class NoWaving(GMComponent):
        def answer_before_event(self, gm, cause, answer):
            gm.veto("waving is not allowed")

        def answer_after_event(self, gm, event, answer):
            gm.emit_observation("Alice", "The guard frowns.")

    # A vetoed actor is told why last: after every component's post-event
    # answer and the observer lines.
    record = turn(make_gm(players=[alice, bob], components=[NoWaving("rules")], model=model), 1)
    assert [(o.recipient, o.text) for o in record.observations] == [
        ("Alice", "The guard frowns."),
        ("Bob", "Alice waved at him"),
        ("Alice", "Your action was invalid: waving is not allowed."),
    ]
    assert memory_texts(alice.memory)[-1] == "Your action was invalid: waving is not allowed."


def test_veto_rewords_outcome_and_notifies_actor():
    class NoStealing(GMComponent):
        def answer_before_event(self, gm, cause, answer):
            if "steal" in cause.text:
                gm.veto("theft is impossible here")

    prompts_seen: list[str] = []

    class SpyModel(ScriptedModel):
        def _complete(self, prompt, max_chars):
            prompts_seen.append(prompt)
            return super()._complete(prompt, max_chars)

    model = SpyModel(
        rules=[
            ScriptRule(
                contains="The attempted action is invalid",
                response="Alice reached for the gem but it would not budge.",
            )
        ],
        default_response="steal the gem",
    )
    alice = GenerativeAgent("Alice", model)
    gm = make_gm(players=[alice], components=[NoStealing("rules")], model=model)
    result = gm.run_episode(max_steps=1)
    outcome_prompts = [p for p in prompts_seen if "The attempted action is invalid" in p]
    assert outcome_prompts and "theft is impossible here" in outcome_prompts[0]
    assert result.trace[0].event == "Alice reached for the gem but it would not budge."
    assert "Your action was invalid: theft is impossible here." in memory_texts(alice.memory)


def test_the_last_veto_in_declaration_order_stands():
    class NoStealing(GMComponent):
        def answer_before_event(self, gm, cause, answer):
            assert answer is None
            gm.veto("theft is impossible here")

    class NoShouting(GMComponent):
        def query_before_event(self, gm, cause):
            return f"Is this shouting? {cause.text}", "component:voice:check"

        def answer_before_event(self, gm, cause, answer):
            assert answer == "steal the gem"
            gm.veto("shouting is not allowed")

    model = ScriptedModel(default_response="steal the gem")
    for components, reason in [
        ([NoShouting("voice"), NoStealing("rules")], "theft is impossible here"),
        ([NoStealing("rules"), NoShouting("voice")], "shouting is not allowed"),
    ]:
        alice = GenerativeAgent("Alice", model)
        gm = make_gm(players=[alice], components=components, model=model)
        result = gm.run_episode(max_steps=1)
        assert [c.caller for c in result.trace[0].model_calls][1:3] == [
            "component:voice:check",
            "gm:resolve:state",
        ]
        notices = [t for t in memory_texts(alice.memory) if t.startswith("Your action was invalid")]
        assert notices == [f"Your action was invalid: {reason}."]


def test_veto_state_resets_between_actions():
    class NoStealing(GMComponent):
        def answer_before_event(self, gm, cause, answer):
            if "steal" in cause.text:
                gm.veto("not allowed")

    model = ScriptedModel(
        rules=[ScriptRule(contains="What would Alice do next? It is 2024-05-01T09:00", response="steal everything")],
        default_response="hums a tune",
    )
    alice = GenerativeAgent("Alice", model)
    gm = make_gm(players=[alice], components=[NoStealing("rules")], model=model)
    gm.run_episode(max_steps=2)
    invalid = [t for t in memory_texts(alice.memory) if t.startswith("Your action was invalid")]
    assert len(invalid) == 1


def test_emit_observation_rejects_unknown_player():
    gm = make_gm()
    with pytest.raises(ConfigError):
        gm.emit_observation("Nobody", "hello")


def test_action_from_unregistered_player_rejected():
    gm = make_gm()
    stranger = GenerativeAgent("Mallory", ScriptedModel(default_response="sneaks in"))
    action = stranger.act(ActionSpec("What now, {name}?"), T0)
    with pytest.raises(ConfigError):
        gm.update_from_player(action)


def test_duplicate_player_names_rejected():
    model = ScriptedModel()
    with pytest.raises(ValueError):
        make_gm(players=[GenerativeAgent("Alice", model), GenerativeAgent("Alice", model)])


def test_duplicate_component_names_rejected():
    # Two components of one name would share one line of the state prompt,
    # of the record's gm_states and of the grounded snapshot.
    first = InventoryComponent({"Alice": {"coin": 5}})
    second = InventoryComponent({"Bob": {"coin": 7}})
    with pytest.raises(ValueError, match="duplicate component name 'inventory'"):
        make_gm(components=[first, second])


def test_phrase_terminator_stops_mid_round():
    model = ScriptedModel(
        rules=[ScriptRule(contains="What event results", response="The fire alarm rang.")],
        default_response="works",
    )
    players = [GenerativeAgent(n, model) for n in ("Alice", "Bob")]
    gm = make_gm(players=players, components=[PhraseTerminator("FIRE ALARM")], model=model)
    result = gm.run_episode(max_steps=5)
    assert result.reason == "component-terminated"
    assert len(result.trace) == 1


def test_two_components_ending_one_turn_end_the_episode_after_its_record():
    ended: list[str] = []

    class Ender(GMComponent):
        def answer_after_event(self, gm, event, answer):
            ended.append(self.name)
            gm.end_episode()

    model = ScriptedModel(default_response="works")
    players = [GenerativeAgent(n, model, components=three_questions_components()) for n in ("Alice", "Bob")]
    gm = make_gm(players=players, components=[Ender("first"), Ender("second")], model=model)
    result = gm.run_episode(max_steps=3)
    assert result.reason == "component-terminated"
    assert ended == ["first", "second"]
    (record,) = result.trace
    # The actor's held update pass completed into the written record.
    assert [c.caller for c in record.model_calls] == [
        f"agent:{record.actor}:act",
        "gm:resolve:state",
        "gm:resolve:outcome",
        "gm:resolve:observers",
        *update_callers(record.actor),
    ]


def test_component_crash_surfaces_as_error_result_with_partial_trace():
    class Flaky(AgentComponent):
        def commit(self, agent, answer):
            raise RuntimeError("boom")

    model = ScriptedModel(default_response="works")
    alice = GenerativeAgent("Alice", model, components=[Flaky("flaky")])
    gm = make_gm(players=[alice], model=model)
    result = gm.run_episode(max_steps=3)
    assert result.reason == "error"
    assert "Alice/flaky" in result.error
    assert len(result.trace) == 1  # the failing turn was still recorded
    assert result.trace[0].event == "works"


def test_grounded_snapshot_in_result():
    class Tally(GMComponent):
        def __init__(self):
            super().__init__("tally")
            self.count = 0

        def answer_after_event(self, gm, event, answer):
            self.count += 1

        def state(self):
            return f"{self.count} events"

    gm = make_gm(components=[Tally()])
    result = gm.run_episode(max_steps=2)
    assert result.reason == "max-steps"
    assert result.grounded == {"tally": "4 events"}


# ---- nested scenes ----------------------------------------------------------


def open_scene_record(gm: GameMaster):
    """A turn record for a scene to note into, as a phone scene has."""
    return gm.begin_record("turn", 0, "Alice")


def test_spawn_nested_game_brackets_notes_and_charges_time():
    gm = make_gm()
    record = open_scene_record(gm)

    def play():
        assert gm.clock.current_time == T0  # charged only once the scene ends
        gm.audit_note("they argued")
        gm.audit_note("they made up")

    assert spawn_nested_game(gm, play, scene_minutes=45, label="tea break") is None
    gm.finish_record(record)
    assert record.notes == [
        "scene start: tea break",
        "they argued",
        "they made up",
        "scene end: tea break",
    ]
    assert gm.clock.current_time == T0 + timedelta(minutes=45)
    assert gm.clock.step_index == 0  # scene time is not a step


def test_spawn_nested_game_rejects_non_players():
    # The caller resolves a scene's players through gm.player, so a scene
    # for a non-player fails before any marker is written or time charged.
    gm = make_gm()
    record = open_scene_record(gm)
    with pytest.raises(ConfigError):
        spawn_nested_game(gm, gm.player("Ghost").update_components, scene_minutes=5)
    assert record.notes == []
    assert gm.clock.current_time == T0


def test_nested_scenes_unwind_last_in_first_out():
    gm = make_gm()
    record = open_scene_record(gm)

    def outer():
        spawn_nested_game(gm, lambda: gm.audit_note("inner happening"), scene_minutes=10, label="inner")
        gm.audit_note("outer happening")

    spawn_nested_game(gm, outer, scene_minutes=30, label="outer")
    assert record.notes == [
        "scene start: outer",
        "scene start: inner",
        "inner happening",
        "scene end: inner",
        "outer happening",
        "scene end: outer",
    ]
    assert gm.clock.current_time == T0 + timedelta(minutes=40)


# ---- the batched resolution stages -------------------------------------------

# Distinct prompt pieces of the calls issued together in one turn.
PRE_EXTRACT = "Text: offers Bob"  # the trade check on the attempted action
POST_EXTRACT = "Text: Alice bought"  # settlement extraction from the event
EVENT = "Alice bought 2 beans from Bob on her phone."

BATCH_RULES = [
    ScriptRule(contains="What would Alice", response="offers Bob 3 coin for 2 beans"),
    ScriptRule(contains=PRE_EXTRACT, response="TRADE Alice Bob beans 2 3\nhaggle"),
    ScriptRule(contains=POST_EXTRACT, response="TRADE Alice Bob beans 2 3"),
    ScriptRule(contains="What event results", response=EVENT),
    ScriptRule(contains=OBSERVERS_QUESTION, response="Alice: Bob hands over the beans\nBob: sees coins"),
    ScriptRule(contains=DETECT_PHONE_QUESTION, response="yes"),
    ScriptRule(contains="finished using the phone", response="yes"),
]

# One turn's calls, in the order the one-at-a-time sequence makes them: the
# scene trigger is declared before the inventory, so its phone scene comes
# before the settlement extraction.
BATCH_TURN_CALLERS = [
    "agent:Alice:act",
    "grounding:inventory:extract",
    "gm:resolve:state",
    "gm:resolve:outcome",
    "gm:resolve:observers",
    "phone:detect",
    "phone:scene:done",
    "grounding:inventory:extract",
]
BATCH_TURN_NOTES = [
    "inventory: unparseable trade line: 'haggle'",
    "observer line ignored (unknown player): Bob: sees coins",
    "scene start: phone: Alice",
    "scene end: phone: Alice",
    "inventory: Amendment: transfer of 2.00 beans from Bob to Alice for 3.00 coin succeeded.",
]


class BatchModel(ScriptedModel):
    """A script, by default the batch script, behind a model that takes
    ``delay_ms`` per call.

    A prompt containing a key of ``meet`` waits on that barrier instead of
    sleeping, and one containing ``fail_on`` raises BackendUnavailable.
    Each call is logged with the name of the thread that made it, once it
    has returned or failed.
    """

    def __init__(self, delay_ms=0.0, meet=None, fail_on=None, rules=BATCH_RULES):
        super().__init__(rules=rules, default_response="pass")
        self.delay_ms = delay_ms
        self.meet = meet or {}
        self.fail_on = fail_on
        self.made: list[tuple[str, str]] = []  # (prompt, thread name)

    @property
    def threads(self) -> set[str]:
        return {thread for _, thread in self.made}

    def _complete(self, prompt, max_chars):
        made = (prompt, threading.current_thread().name)
        if self.fail_on is not None and self.fail_on in prompt:
            self.made.append(made)
            raise BackendUnavailable(f"backend lost while asking {self.fail_on!r}")
        barrier = next((b for marker, b in self.meet.items() if marker in prompt), None)
        if barrier is not None:
            barrier.wait()
        elif self.delay_ms:
            time.sleep(self.delay_ms / 1000)
        self.made.append(made)
        return super()._complete(prompt, max_chars)


def run_batch_turn(model):
    """One turn by Alice, who buys beans on her phone; returns its record."""
    model.sample_text("warm up")
    universe = PhoneUniverse(phones={"Alice": [CalendarApp()]})
    inventory = InventoryComponent({"Alice": {"coin": 5}, "Bob": {"beans": 2}})
    gm = make_gm(
        players=[GenerativeAgent("Alice", model)],
        components=[SceneTrigger(), inventory],
        model=model,
        phones=universe,
    )
    result = gm.run_episode(max_steps=1)
    (record,) = result.trace
    return result, record


def calls_of(record):
    return [(c.caller, c.prompt, c.response) for c in record.model_calls]


@pytest.mark.parametrize(
    "pair",
    [
        (PRE_EXTRACT, STATE_QUESTION),
        (OBSERVERS_QUESTION, POST_EXTRACT),
        (OBSERVERS_QUESTION, DETECT_PHONE_QUESTION),
    ],
    ids=["extract+state", "observers+settle-extract", "observers+phone-detect"],
)
def test_resolution_stage_issues_its_calls_together(pair):
    # Run one after another, the first of the pair would wait out the timeout.
    barrier = threading.Barrier(2, timeout=5)
    model = BatchModel(delay_ms=2, meet=dict.fromkeys(pair, barrier))
    result, record = run_batch_turn(model)
    assert result.reason == "max-steps"
    assert not barrier.broken
    assert [c.caller for c in record.model_calls] == BATCH_TURN_CALLERS
    assert record.notes == BATCH_TURN_NOTES


def test_batched_turn_records_what_the_serial_turn_records():
    serial_result, serial = run_batch_turn(BatchModel(delay_ms=0))
    model = BatchModel(delay_ms=2)
    parallel_result, parallel = run_batch_turn(model)
    assert len(model.threads) > 1  # the batches did run on pool threads
    assert [c.caller for c in serial.model_calls] == BATCH_TURN_CALLERS
    assert serial.notes == BATCH_TURN_NOTES
    assert calls_of(parallel) == calls_of(serial)
    assert parallel.notes == serial.notes
    assert parallel.observations == serial.observations
    assert parallel.event == serial.event == EVENT
    assert parallel_result.grounded == serial_result.grounded


def test_batched_turn_starts_no_thread_for_a_fast_model(monkeypatch):
    def no_pool():
        raise AssertionError("a fast model must not start pool threads")

    monkeypatch.setattr(gabm.model, "_shared_pool", no_pool)
    model = BatchModel(delay_ms=0)
    result, record = run_batch_turn(model)
    assert result.reason == "max-steps"
    assert model.threads == {threading.current_thread().name}
    assert [c.caller for c in record.model_calls] == BATCH_TURN_CALLERS


def test_components_without_queries_stay_out_of_the_batches(monkeypatch):
    # With no component query each batch is one call, which the game master
    # makes itself even when the model is slow.
    def no_pool():
        raise AssertionError("a batch of one call must not start pool threads")

    monkeypatch.setattr(gabm.model, "_shared_pool", no_pool)
    model = BatchModel(delay_ms=2)
    model.sample_text("warm up")
    gm = make_gm(
        players=[GenerativeAgent("Alice", model)],
        components=[PhraseTerminator("never said")],
        model=model,
    )
    result = gm.run_episode(max_steps=1)
    assert result.reason == "max-steps"
    assert model.threads == {threading.current_thread().name}


@pytest.mark.parametrize(
    "fail_on, kept_callers, kept_notes, event",
    [
        (PRE_EXTRACT, 1, 0, ""),
        (STATE_QUESTION, 2, 1, ""),
        (OBSERVERS_QUESTION, 4, 1, ""),
        (DETECT_PHONE_QUESTION, 5, 2, EVENT),
        (POST_EXTRACT, 7, 4, EVENT),
    ],
    ids=["pre-extract", "state", "observers", "phone-detect", "settle-extract"],
)
def test_failing_call_in_a_batch_ends_in_error_with_the_serial_partial_record(
    fail_on, kept_callers, kept_notes, event
):
    runs = [run_batch_turn(BatchModel(delay_ms=delay, fail_on=fail_on)) for delay in (0, 2)]
    for result, record in runs:
        assert result.reason == "error"
        assert fail_on in result.error
        # Everything before the failing call in the one-at-a-time sequence
        # is kept: the inventory's warning note when the state call fails,
        # the event and the phone scene declared before a failing
        # settlement extraction.  The failed call never completed, and the
        # calls of the batch's tasks after it are dropped, whether or not
        # they ran.
        assert [c.caller for c in record.model_calls] == BATCH_TURN_CALLERS[:kept_callers]
        assert record.notes == BATCH_TURN_NOTES[:kept_notes]
        assert record.event == event
    (_, serial), (_, parallel) = runs
    assert calls_of(parallel) == calls_of(serial)
    assert parallel.observations == serial.observations
    assert parallel.gm_states == serial.gm_states


JUDGE_EVENT = f"Judge: {EVENT}"


class OwnModelComponent(GMComponent):
    """Asks the game master's model, then, from each answer hook, a model of
    its own, neither the game master's nor a player's."""

    def __init__(self):
        super().__init__("own model")
        self.model = ScriptedModel(default_response="noted")

    def query_before_event(self, gm, cause):
        return f"Judge: {cause.text}", "component:own:judge"

    def answer_before_event(self, gm, cause, answer):
        self.model.sample_text(f"Check: {cause.text}", caller="component:own:before")

    def query_after_event(self, gm, event):
        return f"Judge: {event.text}", "component:own:judge"

    def answer_after_event(self, gm, event, answer):
        self.model.sample_text(f"Note: {event.text}", caller="component:own:after")


@pytest.mark.parametrize("delay_ms", [0, 2], ids=["serial", "parallel"])
def test_a_call_from_a_model_the_game_master_does_not_hold_lands_in_the_turn_record(delay_ms):
    # Above the gate the post-event ask must go out together with the
    # observers call, or that call waits out the timeout.
    barrier = threading.Barrier(2, timeout=5) if delay_ms else None
    meet = {OBSERVERS_QUESTION: barrier, JUDGE_EVENT: barrier} if barrier else None
    model = BatchModel(delay_ms=delay_ms, meet=meet)
    model.sample_text("warm up")
    own = OwnModelComponent()
    gm = make_gm(
        players=[GenerativeAgent("Alice", model)],
        components=[own],
        model=model,
    )
    result = gm.run_episode(max_steps=1)
    assert result.reason == "max-steps"
    assert barrier is None or not barrier.broken
    (record,) = result.trace
    assert [c.caller for c in record.model_calls] == [
        "agent:Alice:act",
        "component:own:judge",
        "component:own:before",
        "gm:resolve:state",
        "gm:resolve:outcome",
        "gm:resolve:observers",
        "component:own:judge",
        "component:own:after",
    ]
    own_calls = [c for c in record.model_calls if c.caller in ("component:own:before", "component:own:after")]
    assert [c.prompt for c in own_calls] == [
        "Check: offers Bob 3 coin for 2 beans",
        f"Note: {EVENT}",
    ]
    assert {c.response for c in own_calls} == {"noted"}


@pytest.mark.parametrize("delay_ms", [0, 2], ids=["serial", "parallel"])
def test_an_episode_ending_in_error_inside_a_batch_leaves_no_call_list_open(delay_ms):
    model = BatchModel(delay_ms=delay_ms, fail_on=POST_EXTRACT)
    result, record = run_batch_turn(model)
    assert result.reason == "error"
    kept = list(record.model_calls)
    model.sample_text("after the episode", caller="later")
    assert record.model_calls == kept
    assert all(c.caller != "later" for r in result.trace for c in r.model_calls)


# The phone scene of the turn below books a meeting with Bob, which pushes
# a notification to him.
MEETING_RULES = [
    ScriptRule(contains_all=("finished using the phone", "Added meeting"), response="yes"),
    ScriptRule(contains="finished using the phone", response="no"),
    ScriptRule(contains="What does Alice do on the phone", response="Add a meeting with Bob tomorrow at 10:00."),
    ScriptRule(contains="Which app action", response="calendar.add_meeting"),
    ScriptRule(contains="parameter 'title'", response="lunch"),
    ScriptRule(contains="parameter 'participant'", response="Bob"),
    ScriptRule(contains="parameter 'when'", response="tomorrow at 10:00"),
]
ENGINE_STATE = [
    (MemoryBank, "add"),
    (MemoryBank, "retrieve_associative"),
    (MemoryBank, "retrieve_recent"),
    (GameMaster, "emit_observation"),
    (GameMaster, "audit_note"),
    (GameMaster, "veto"),
    (PhoneUniverse, "notify"),
]


def test_engine_state_stays_on_the_calling_thread(monkeypatch):
    touched: list[tuple[str, str]] = []

    def logging_thread(name, original):
        def logged(*args, **kwargs):
            touched.append((name, threading.current_thread().name))
            return original(*args, **kwargs)

        return logged

    for owner, attr in ENGINE_STATE:
        monkeypatch.setattr(owner, attr, logging_thread(attr, getattr(owner, attr)))
    model = BatchModel(delay_ms=2)
    model.rules[:0] = MEETING_RULES
    model.sample_text("warm up")
    universe = PhoneUniverse(phones={"Alice": [CalendarApp()]})
    # Alice cannot pay for the beans, so the trade check vetoes.
    inventory = InventoryComponent({"Alice": {"coin": 1}, "Bob": {"beans": 2}})
    alice = GenerativeAgent("Alice", model, components=three_questions_components())
    gm = make_gm(
        players=[alice],
        components=[SceneTrigger(), inventory],
        model=model,
        phones=universe,
    )
    result = gm.run_episode(max_steps=1)
    assert result.reason == "max-steps"
    assert "Added meeting 'lunch' with Bob" in " ".join(memory_texts(alice.memory))
    assert len(model.threads) > 1  # the batches did run on pool threads
    assert {name for name, _ in touched} == {attr for _, attr in ENGINE_STATE}
    assert {thread for _, thread in touched} == {threading.current_thread().name}


# ---- update passes held over the next act -------------------------------------

ALICE_IDENTITY = IDENTITY_QUESTION.replace("{name}", "Alice")
BOB_ACTS = "What would Bob do next"
PASS_STATES = {"situation": "a quiet square", "identity": "a friendly neighbour", "disposition": "says hello"}
OVERLAP_RULES = [
    ScriptRule(contains="What would Alice do next", response="waves at Bob"),
    ScriptRule(contains=BOB_ACTS, response="nods at Alice"),
    ScriptRule(contains="What kind of situation", response=PASS_STATES["situation"]),
    ScriptRule(contains="What kind of person is", response=PASS_STATES["identity"]),
    ScriptRule(contains="What does a person such as", response=PASS_STATES["disposition"]),
    ScriptRule(contains_all=("What event results", "by Alice:"), response="Alice waved and rang the bell."),
    ScriptRule(contains="What event results", response="Bob nodded."),
    ScriptRule(contains=OBSERVERS_QUESTION, response="Alice: Bob nods\nBob: Alice waves"),
]


def update_callers(name):
    return [f"component:{name}/{component}:update" for component in PASS_STATES]


def test_an_update_pass_overlaps_the_next_players_act():
    # Alice acts first.  Held into Bob's turn, her update pass is out while
    # Bob's act call is; run one after the other, her identity call would
    # wait out the timeout.
    barrier = threading.Barrier(2, timeout=5)
    model = BatchModel(delay_ms=2, meet={ALICE_IDENTITY: barrier, BOB_ACTS: barrier}, rules=OVERLAP_RULES)
    model.sample_text("warm up")
    players = [GenerativeAgent(name, model, components=three_questions_components()) for name in ("Alice", "Bob")]
    gm = make_gm(players=players, model=model)
    result = gm.run_episode(max_steps=1)
    assert result.reason == "max-steps"
    assert not barrier.broken
    alice, bob = result.trace
    assert [c.caller for c in alice.model_calls][-3:] == update_callers("Alice")
    assert bob.model_calls[0].caller == "agent:Bob:act"
    assert alice.model_calls[-2].prompt.endswith(f"Question: {ALICE_IDENTITY}\nAnswer:")


# With seed 7 the rounds go Alice, Bob and then Bob, Alice: Bob acts twice
# in a row across the step boundary.
OVERLAP_CONFIG = {
    "seed": 7,
    "max_steps": 2,
    "clock": {"start": "2024-05-01T09:00", "step_minutes": 30, "mode": "round"},
    "model": {"kind": "echo"},
    "agents": [
        {
            "name": "Alice",
            "components": [{"type": "three_questions"}, {"type": "observations"}],
            "initial_memories": ["Alice keeps the bell at the square."],
        },
        {
            "name": "Bob",
            "components": [{"type": "three_questions"}, {"type": "observations"}],
            "initial_memories": ["Bob sells pears at the square."],
        },
    ],
    "gm": {"components": [{"type": "locations", "locations": {"Alice": "square", "Bob": "square"}}]},
}


def run_overlap_episode(tmp_path, delay_ms, fail_on=None, add=(), **changes):
    """Run OVERLAP_CONFIG with ``changes``, and a game-master component of
    each class in ``add``, at ``delay_ms`` per call; check that the trace
    replays, unless a component was added that its config cannot name, and
    return the result and the model."""
    model = BatchModel(delay_ms=delay_ms, fail_on=fail_on, rules=OVERLAP_RULES)
    model.sample_text("warm up")
    built = build(config_from_dict({**OVERLAP_CONFIG, **changes}, base_dir=tmp_path), model=model)
    built.gm.components.extend(component() for component in add)
    out = tmp_path / f"{delay_ms}ms.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        result = run_built_scenario(built, out=handle).result
    if not add:
        report = replay(out)
        assert report.ok, report.detail
    return result, model


def overlap_runs(tmp_path, fail_on=None, add=(), **changes):
    """The episode at 0 ms and at 2 ms per call, which must agree; the 0 ms
    result and the 2 ms model."""
    (serial, _), (overlapped, model) = [
        run_overlap_episode(tmp_path, delay, fail_on, add, **changes) for delay in (0, 2)
    ]
    assert len(model.threads) > 1  # the slow run did use the pool
    assert [r.to_json_line() for r in overlapped.trace] == [r.to_json_line() for r in serial.trace]
    assert (overlapped.reason, overlapped.error) == (serial.reason, serial.error)
    assert overlapped.grounded == serial.grounded
    return serial, model


ACTS = re.compile(r"What would (\w+) do next")


def acts_made(model):
    """(actor, asked ahead) of each act call the model made, in order: an
    act call asked ahead runs on a pool thread."""
    here = threading.current_thread().name
    return [(m[1], thread != here) for prompt, thread in model.made if (m := ACTS.search(prompt))]


def test_an_overlapped_run_records_what_the_serial_run_records(tmp_path):
    result, _ = overlap_runs(tmp_path)
    assert result.reason == "max-steps"
    assert [(r.step, r.actor) for r in result.trace] == [(0, "Alice"), (0, "Bob"), (1, "Bob"), (1, "Alice")]
    for record in result.trace:
        assert [c.caller for c in record.model_calls][-3:] == update_callers(record.actor)


def test_the_same_actor_twice_acts_on_its_committed_pass(tmp_path):
    # Bob's first pass completes before his second turn's briefing, so that
    # turn's act prompt shows the pass's answers, and the window his first
    # pass committed holds only what he saw before it.
    result, _ = overlap_runs(tmp_path)
    _, first, second, _ = result.trace
    assert first.actor == second.actor == "Bob"
    assert {name: first.agent_states[name] for name in PASS_STATES} == dict.fromkeys(PASS_STATES, "")
    assert {name: second.agent_states[name] for name in PASS_STATES} == PASS_STATES
    assert second.agent_states["recent observations"] == "\n".join(
        o.text for record in result.trace[:2] for o in record.observations if o.recipient == "Bob"
    )


def test_the_same_actor_across_a_step_boundary_is_not_asked_ahead(tmp_path):
    # Bob's second act reads the pass of his first turn, which has not run
    # when that turn resolves, so he is asked in his own turn.  Alice's
    # second act is asked ahead during it.
    _, model = overlap_runs(tmp_path)
    assert acts_made(model) == [("Alice", False), ("Bob", True), ("Bob", False), ("Alice", True)]


CHOICE_SPEC = {
    "call_to_action": "What would {name} do next? It is {time}.",
    "output_kind": "choice",
    "options": ["waves at Bob", "nods at Alice"],
}


@pytest.mark.parametrize(
    "changes",
    [
        {"clock": {**OVERLAP_CONFIG["clock"], "mode": "player"}},
        {"action_spec": CHOICE_SPEC},
        {"seed": 0},
    ],
    ids=["player-clock", "choice-spec", "round-step-boundary"],
)
def test_every_act_asked_ahead_is_the_act_made(tmp_path, changes):
    # The prompt asked ahead is the one built at the act, so every act call
    # but the first and Bob's repeat is made once, ahead, and recorded: in
    # player mode at the time the clock shows one step on, as a rendered
    # choice prompt, and with seed 0 (Alice, Bob twice) across a step.
    result, model = overlap_runs(tmp_path, **changes)
    assert result.reason == "max-steps"
    actors = [r.actor for r in result.trace]
    assert acts_made(model) == [(actor, i > 0 and actor != actors[i - 1]) for i, actor in enumerate(actors)]
    assert [r.action.timestamp for r in result.trace] == [r.timestamp for r in result.trace]
    if "clock" in changes:
        assert [r.timestamp for r in result.trace] == [T0 + timedelta(minutes=30 * i) for i in range(4)]
    if "action_spec" in changes:
        assert {r.action.text for r in result.trace} == set(CHOICE_SPEC["options"])
    if "seed" in changes:
        assert actors == ["Alice", "Bob", "Alice", "Bob"]


def test_a_failing_update_call_of_the_first_actor_leaves_no_next_record(tmp_path):
    # Alice's identity call fails while Bob's act call, asked ahead, is
    # out.  Bob's act is taken, but his record is never written.
    result, model = overlap_runs(tmp_path, fail_on=ALICE_IDENTITY)
    assert result.reason == "error"
    assert "Alice/identity failed during update" in result.error
    (alice,) = result.trace
    assert [c.caller for c in alice.model_calls][-1] == "component:Alice/situation:update"
    assert acts_made(model) == [("Alice", False), ("Bob", True)]


def test_a_failing_act_of_the_next_actor_follows_the_whole_previous_record(tmp_path):
    result, model = overlap_runs(tmp_path, fail_on=BOB_ACTS)
    assert result.reason == "error"
    assert BOB_ACTS in result.error
    alice, bob = result.trace
    assert [c.caller for c in alice.model_calls][-3:] == update_callers("Alice")
    assert (bob.actor, bob.action, bob.model_calls) == ("Bob", None, [])
    assert acts_made(model) == [("Alice", False), ("Bob", True)]


def test_a_phrase_terminator_ending_the_rounds_mid_round_keeps_the_held_record(tmp_path):
    gm = {"components": [*OVERLAP_CONFIG["gm"]["components"], {"type": "phrase_terminator", "phrase": "rang the bell"}]}
    result, model = overlap_runs(tmp_path, gm=gm)
    assert result.reason == "component-terminated"
    (alice,) = result.trace
    assert [c.caller for c in alice.model_calls][-3:] == update_callers("Alice")
    # Bob's act was asked ahead, answered before the episode returned, and
    # dropped unrecorded.
    assert acts_made(model) == [("Alice", False), ("Bob", True)]


class SlowBobModel(BatchModel):
    """Bob's act call takes 50 ms; every other call 2 ms."""

    def _complete(self, prompt, max_chars):
        if BOB_ACTS in prompt:
            time.sleep(0.05)
        return super()._complete(prompt, max_chars)


def test_an_act_asked_ahead_is_waited_for_when_the_rounds_end():
    model = SlowBobModel(delay_ms=2, rules=OVERLAP_RULES)
    model.sample_text("warm up")
    players = [GenerativeAgent(name, model) for name in ("Alice", "Bob")]
    gm = make_gm(players=players, model=model, components=[PhraseTerminator("rang the bell")])
    result = gm.run_episode(max_steps=1)
    assert result.reason == "component-terminated"
    assert acts_made(model) == [("Alice", False), ("Bob", True)]
    assert [r.actor for r in result.trace] == ["Alice"]


def test_no_act_is_asked_ahead_past_the_clocks_last_minute():
    # In player mode Alice's turn moves the clock past its last minute, so
    # Bob has no time to act at: his act is not asked, and the episode ends
    # as the serial one does.
    lines = []
    for delay_ms in (0, 2):
        model = BatchModel(delay_ms=delay_ms, rules=OVERLAP_RULES)
        model.sample_text("warm up")
        clock = GameClock(datetime(9999, 12, 31, 23, 0), step_minutes=60, mode=ClockMode.ADVANCE_PER_PLAYER)
        players = [GenerativeAgent(name, model) for name in ("Alice", "Bob")]
        result = make_gm(players=players, model=model, clock=clock).run_episode(max_steps=1)
        assert result.reason == "error"
        assert "cannot move 60 minutes past 9999-12-31T23:00" in result.error
        assert acts_made(model) == [("Alice", False)]
        lines.append([r.to_json_line() for r in result.trace])
    assert lines[0] == lines[1]


def test_a_questionnaire_comes_after_the_last_turns_whole_record(tmp_path):
    questionnaires = [{"name": "debrief", "questions": [{"call_to_action": "How was the day, {name}?"}]}]
    result, _ = overlap_runs(tmp_path, questionnaires=questionnaires)
    assert result.reason == "max-steps"
    assert [(r.kind, r.actor) for r in result.trace[3:]] == [
        ("turn", "Alice"),
        ("questionnaire", "Alice"),
        ("questionnaire", "Bob"),
    ]
    assert [c.caller for c in result.trace[3].model_calls][-3:] == update_callers("Alice")


ALICE_OUTCOME = "by Alice: waves at Bob\nRelevant state:"


def test_the_next_players_act_is_out_with_the_outcome_call():
    # Bob's act call is asked once Alice's pre-event batch is answered.
    # Asked after her turn, it would leave her outcome call to wait out the
    # timeout.
    barrier = threading.Barrier(2, timeout=5)
    model = BatchModel(delay_ms=2, meet={ALICE_OUTCOME: barrier, BOB_ACTS: barrier}, rules=OVERLAP_RULES)
    model.sample_text("warm up")
    players = [GenerativeAgent(name, model, components=three_questions_components()) for name in ("Alice", "Bob")]
    gm = make_gm(players=players, model=model)
    result = gm.run_episode(max_steps=1)
    assert result.reason == "max-steps"
    assert not barrier.broken
    alice, bob = result.trace
    assert [c.caller for c in alice.model_calls] == [
        "agent:Alice:act",
        "gm:resolve:state",
        "gm:resolve:outcome",
        "gm:resolve:observers",
        *update_callers("Alice"),
    ]
    assert bob.model_calls[0].caller == "agent:Bob:act"
    assert acts_made(model) == [("Alice", False), ("Bob", True)]


class Whisperer(GMComponent):
    """Tells every other player that an action was checked, from its
    pre-event answer."""

    def __init__(self):
        super().__init__("whisperer")

    def query_before_event(self, gm, cause):
        return f"Is this allowed: {cause.text}?", "component:whisperer:check"

    def answer_before_event(self, gm, cause, answer):
        for player in gm.players:
            if player.name != cause.actor:
                gm.emit_observation(player.name, f"{cause.actor}'s action was checked: {answer}.")


def test_a_pass_commits_only_the_observations_it_was_built_over(tmp_path):
    # Alice's first pass completes during Bob's turn, after the whisperer
    # told her about his action.  Her window keeps those lines for her next
    # pass, as when her pass completed before Bob's resolution began.
    result, _ = overlap_runs(tmp_path, add=(Whisperer,))
    alice, bob, _, alice_again = result.trace
    assert [o.text for o in bob.observations if o.recipient == "Alice"][:1] == [
        "Bob's action was checked: pass.",
    ]
    assert alice_again.agent_states["recent observations"] == "\n".join(
        o.text for o in alice.observations if o.recipient == "Alice"
    )

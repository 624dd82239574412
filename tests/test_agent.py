from __future__ import annotations

import threading
import time
from datetime import datetime

import pytest

import gabm.model
from gabm.agent import (
    DEFAULT_PREAMBLE,
    FLOAT_SUFFIX,
    AgentComponent,
    ConstantComponent,
    GenerativeAgent,
    ModelQueryComponent,
    ObservationBuffer,
    three_questions_components,
)
from gabm.errors import EpisodeAbort, InvalidModelOutput
from gabm.kernel import ActionSpec, GameClock, Observation, OutputKind
from gabm.model import PARALLEL_MIN_CALL_S, CallRecorder, ScriptedModel, ScriptRule

T0 = datetime(2024, 5, 1, 9, 0)
FREE_SPEC = ActionSpec("What would {name} do next? It is {time}.", OutputKind.FREE_TEXT)


def make_agent(components=None, model=None, **kwargs) -> GenerativeAgent:
    return GenerativeAgent(
        name="Ada",
        model=model or ScriptedModel(default_response="waits quietly"),
        components=components or [],
        clock=GameClock(T0, step_minutes=30),
        **kwargs,
    )


def test_acting_prompt_stacks_preamble_sections_and_call():
    agent = make_agent(
        [ConstantComponent("goal", "win the regatta"), ConstantComponent("mood", "cheerful")]
    )
    prompt = agent.context_of_action(FREE_SPEC)
    assert prompt == (
        "Instructions: this is a social simulation. Answer as Ada would.\n"
        "goal: win the regatta\n"
        "mood: cheerful\n"
        "What would Ada do next? It is 2024-05-01T09:00."
    )


def test_empty_component_list_prompt_is_preamble_plus_call():
    agent = make_agent([])
    assert agent.context_of_action(FREE_SPEC) == (
        DEFAULT_PREAMBLE.replace("{name}", "Ada")
        + "\nWhat would Ada do next? It is 2024-05-01T09:00."
    )


def test_component_order_is_part_of_the_prompt():
    a = ConstantComponent("goal", "win")
    b = ConstantComponent("mood", "cheerful")
    one = make_agent([a, b]).context_of_action(FREE_SPEC)
    two = make_agent([b, a]).context_of_action(FREE_SPEC)
    assert one != two
    assert sorted(one.splitlines()) == sorted(two.splitlines())


class Counter(AgentComponent):
    def __init__(self, name, cadence="step"):
        super().__init__(name, cadence)
        self.runs = 0

    def update(self):
        self.runs += 1
        self.publish(f"run {self.runs}")


class PeerReader(AgentComponent):
    """Publishes whatever its peer's state read as during the pass."""

    def __init__(self, name, peer):
        super().__init__(name)
        self.peer = peer

    def update(self):
        self.publish(f"saw [{self.agent.component(self.peer).state()}]")


def test_update_pass_reads_pre_update_peer_states():
    counter = Counter("counter")
    reader = PeerReader("reader", "counter")
    agent = make_agent([counter, reader])
    agent.update_components()
    assert counter.state() == "run 1"
    assert reader.state() == "saw []"
    agent.update_components()
    assert reader.state() == "saw [run 1]"


def test_update_order_does_not_change_what_peers_read():
    for order in ([0, 1], [1, 0]):
        counter = Counter("counter")
        reader = PeerReader("reader", "counter")
        parts = [counter, reader]
        agent = make_agent([parts[i] for i in order])
        agent.update_components()
        agent.update_components()
        assert reader.state() == "saw [run 1]"


def test_cadence_interval_and_manual():
    every = Counter("every")
    third = Counter("third", cadence=3)
    manual = Counter("manual", cadence="manual")
    agent = make_agent([every, third, manual])
    for _ in range(6):
        agent.update_components()
    assert every.runs == 6
    assert third.runs == 2  # pass indices 0 and 3
    assert manual.runs == 0
    with pytest.raises(ValueError):
        Counter("bad", cadence=0)


def test_component_failure_aborts_and_names_component():
    class Broken(AgentComponent):
        def update(self):
            raise RuntimeError("kaput")

    agent = make_agent([Broken("weather")])
    with pytest.raises(EpisodeAbort, match=r"Ada/weather"):
        agent.update_components()


def test_observation_buffer_keeps_window_verbatim_newest_last():
    buffer = ObservationBuffer(max_items=3)
    agent = make_agent([buffer])
    for i in range(5):
        agent.observe(Observation("Ada", f"saw bird #{i}", T0))
    agent.update_components()
    assert buffer.state() == "saw bird #2\nsaw bird #3\nsaw bird #4"


def test_observation_buffer_default_window_is_twenty():
    buffer = ObservationBuffer()
    agent = make_agent([buffer])
    for i in range(25):
        agent.observe(Observation("Ada", f"event {i}", T0))
    agent.update_components()
    lines = buffer.state().splitlines()
    assert len(lines) == 20
    assert lines[0] == "event 5"
    assert lines[-1] == "event 24"


def test_observe_checks_recipient_and_feeds_memory():
    agent = make_agent([])
    agent.observe(Observation("Ada", "the door creaked", T0))
    assert agent.memory.texts() == ["the door creaked"]
    with pytest.raises(ValueError):
        agent.observe(Observation("Bob", "not for you", T0))


def test_free_text_act_memorizes_verbatim():
    model = ScriptedModel(default_response="  walks to the pier  ")
    agent = make_agent([], model=model)
    action = agent.act(FREE_SPEC)
    assert action.actor == "Ada"
    assert action.text == "walks to the pier"
    assert action.timestamp == T0
    assert agent.memory.texts() == ["walks to the pier"]


def test_empty_free_text_is_invalid():
    agent = make_agent([], model=ScriptedModel(default_response="   "))
    with pytest.raises(InvalidModelOutput):
        agent.act(FREE_SPEC)


def test_choice_act_lists_options_and_returns_option_text():
    spec = ActionSpec("Which way does {name} go?", OutputKind.CHOICE, ("go north", "go south"))
    model = ScriptedModel(rules=[ScriptRule(contains="Pick exactly one option", response="Go South")])
    recorder = CallRecorder()
    model.set_recorder(recorder)
    agent = make_agent([], model=model)
    action = agent.act(spec)
    assert action.text == "go south"
    prompt = recorder.calls[0].prompt
    assert "Pick exactly one option:\n- go north\n- go south\nAnswer:" in prompt


def test_float_act_appends_suffix_and_normalizes():
    spec = ActionSpec("How many apples does {name} buy?", OutputKind.FLOAT)
    model = ScriptedModel(default_response="about 2.50 apples")
    recorder = CallRecorder()
    model.set_recorder(recorder)
    agent = make_agent([], model=model)
    action = agent.act(spec)
    assert action.text == "2.50"
    assert recorder.calls[0].prompt.endswith(f"How many apples does Ada buy? {FLOAT_SUFFIX}")


def test_float_act_retries_then_raises():
    spec = ActionSpec("Pick a number, {name}.", OutputKind.FLOAT)
    model = ScriptedModel(default_response="no idea")
    agent = make_agent([], model=model)
    with pytest.raises(InvalidModelOutput):
        agent.act(spec)
    assert model.call_count == 4
    # One retry that recovers stops the escalation.
    model = ScriptedModel(
        rules=[ScriptRule(contains="Pick a number", response="hmm", max_uses=1)],
        default_response="7",
    )
    agent = make_agent([], model=model)
    assert agent.act(spec).text == "7"
    assert model.call_count == 2


def test_model_query_component_prompt_shape():
    model = ScriptedModel(default_response="a quiet morning")
    recorder = CallRecorder()
    model.set_recorder(recorder)
    component = ModelQueryComponent(
        name="summary",
        question="What is happening around {name}?",
        retrieval="recent",
        k=2,
    )
    agent = make_agent([component], model=model)
    agent.memory.add("old news", T0)
    agent.memory.add("fresh news", T0)
    agent.memory.add("breaking news", T0)
    agent.update_components()
    assert component.state() == "a quiet morning"
    call = recorder.calls[0]
    assert call.caller == "component:Ada/summary:update"
    assert call.prompt == (
        "Instructions: this is a social simulation. Answer as Ada would.\n"
        "Memories of Ada:\n"
        "- fresh news\n"
        "- breaking news\n"
        "Question: What is happening around Ada?\nAnswer:"
    )


def test_model_query_reads_render_peer_sections():
    model = ScriptedModel(default_response="fine")
    recorder = CallRecorder()
    model.set_recorder(recorder)
    component = ModelQueryComponent(
        name="verdict", question="So?", retrieval="none", reads=("goal",)
    )
    agent = make_agent([ConstantComponent("goal", "win"), component], model=model)
    agent.update_components()
    assert "goal: win\n" in recorder.calls[0].prompt
    assert "Memories of" not in recorder.calls[0].prompt


def test_model_query_rejects_unknown_retrieval():
    with pytest.raises(ValueError):
        ModelQueryComponent(name="x", question="q", retrieval="psychic")


def test_three_questions_wiring_and_prompts():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="What kind of situation", response="a market day"),
            ScriptRule(contains="What kind of person is", response="a careful trader"),
            ScriptRule(contains="What does a person such as", response="haggles politely"),
        ]
    )
    recorder = CallRecorder()
    model.set_recorder(recorder)
    components = three_questions_components()
    agent = make_agent(components, model=model)
    agent.memory.add("Ada set up her stall.", T0)
    agent.update_components()  # first pass: disposition reads blank peers
    agent.update_components()
    states = agent.component_states()
    assert states == {
        "situation": "a market day",
        "identity": "a careful trader",
        "disposition": "haggles politely",
    }
    second_pass = recorder.calls[3:]
    disposition_prompt = second_pass[2].prompt
    assert "situation: a market day\n" in disposition_prompt
    assert "identity: a careful trader\n" in disposition_prompt
    assert disposition_prompt.endswith(
        "Question: What does a person such as Ada do in a situation such as this?\nAnswer:"
    )
    assert "Memories of Ada" not in disposition_prompt
    identity_prompt = second_pass[1].prompt
    assert "Memories of Ada:\n- Ada set up her stall.\n" in identity_prompt
    assert [c.k for c in components[:2]] == [25, 25]


def test_duplicate_component_names_rejected():
    with pytest.raises(ValueError):
        make_agent([ConstantComponent("goal", "a"), ConstantComponent("goal", "b")])


def test_unknown_component_lookup_raises():
    agent = make_agent([])
    with pytest.raises(KeyError):
        agent.component("nope")


def test_last_prompt_survives_act():
    agent = make_agent([])
    agent.act(FREE_SPEC)
    assert agent.last_prompt.endswith("What would Ada do next? It is 2024-05-01T09:00.")


QUESTION_RULES = {
    "situation": ScriptRule(contains="What kind of situation", response="a market day"),
    "identity": ScriptRule(contains="What kind of person is", response="a careful trader"),
    "disposition": ScriptRule(contains="What does a person such as", response="haggles politely"),
}
UPDATE_CALLERS = [f"component:Ada/{name}:update" for name in QUESTION_RULES]


class SlowQuestionModel(ScriptedModel):
    """The three questions' script behind a slow model.

    Any other prompt takes ``other_ms``.  A question may wait on
    ``barrier``, and for the question ``after`` maps it to to finish
    first.  Completions are logged by question, in completion order, with
    the thread that ran them.
    """

    def __init__(self, other_ms=2.0, barrier=None, after=None):
        super().__init__(rules=list(QUESTION_RULES.values()))
        self.other_ms = other_ms
        self.barrier = barrier
        self.after = after or {}
        self.done = {name: threading.Event() for name in QUESTION_RULES}
        self.finished: list[tuple[str, str]] = []
        self._log_lock = threading.Lock()

    def _complete(self, prompt, max_chars):
        question = next((n for n, r in QUESTION_RULES.items() if r.matches(prompt)), None)
        if question is None:
            if self.other_ms:  # sleep(0) yields the CPU, which can take over 1 ms to come back
                time.sleep(self.other_ms / 1000)
        else:
            if self.barrier is not None:
                self.barrier.wait()
            if question in self.after:
                assert self.done[self.after[question]].wait(timeout=5)
        with self._log_lock:
            self.finished.append((question, threading.current_thread().name))
        if question is not None:
            self.done[question].set()
        return super()._complete(prompt, max_chars)


def slow_agent(model, components=None):
    model.sample_text("warm up")
    assert model.call_seconds >= PARALLEL_MIN_CALL_S
    recorder = CallRecorder()
    model.set_recorder(recorder)
    return make_agent(components or three_questions_components(), model=model), recorder


def test_update_pass_issues_three_questions_together_above_the_gate():
    # Run one after another, the first question would wait out the timeout.
    barrier = threading.Barrier(3, timeout=5)
    agent, recorder = slow_agent(SlowQuestionModel(barrier=barrier))
    agent.update_components()
    assert not barrier.broken
    assert agent.component_states() == {
        "situation": "a market day",
        "identity": "a careful trader",
        "disposition": "haggles politely",
    }
    assert [c.caller for c in recorder.calls] == UPDATE_CALLERS


def test_update_pass_records_calls_in_declaration_order():
    # Each question answers only once the next one has: reverse order.
    model = SlowQuestionModel(after={"situation": "identity", "identity": "disposition"})
    agent, recorder = slow_agent(model)
    agent.update_components()
    assert [q for q, _ in model.finished[1:]] == ["disposition", "identity", "situation"]
    assert [c.caller for c in recorder.calls] == UPDATE_CALLERS


def test_parallel_component_failure_names_it_and_drops_later_calls():
    class Broken(AgentComponent):
        def update(self):
            self.agent.model.sample_text("checking the weather", caller="weather")
            raise RuntimeError("kaput")

    situation, identity, _ = three_questions_components()
    model = SlowQuestionModel(after={"situation": "identity"})
    agent, recorder = slow_agent(model, [situation, Broken("weather"), identity])
    with pytest.raises(EpisodeAbort, match=r"Ada/weather failed during update: kaput"):
        agent.update_components()
    # identity did run, but the serial pass would have stopped before it.
    assert model.done["identity"].is_set()
    assert [c.caller for c in recorder.calls] == [UPDATE_CALLERS[0], "weather"]
    assert situation.state() == ""


def test_update_pass_starts_no_thread_for_a_fast_model(monkeypatch):
    def no_pool():
        raise AssertionError("a fast model must not start pool threads")

    monkeypatch.setattr(gabm.model, "_shared_pool", no_pool)
    model = SlowQuestionModel(other_ms=0)
    agent = make_agent(three_questions_components(), model=model)
    model.sample_text("warm up")
    assert model.call_seconds < PARALLEL_MIN_CALL_S
    agent.update_components()
    agent.update_components()
    assert {thread for _, thread in model.finished} == {threading.current_thread().name}

"""The game master: resolves player actions into events and runs episodes.

Resolution of one acting turn follows a fixed sequence:

1. ``update_before_event``: components react to the attempted action (and
   may veto it), then publish their states (``state()``), which make up
   the resolution context.
2. One batch: the pre-event query of each component that has one, and the
   game master's "relevant state" call.  Then each component's pre-event
   effect, which may veto the action too.
3. The outcome call, which alone reads the veto, gives the event.
4. One batch: the game master's "who observes what" call and the
   post-event query of each component that has one.  The observer lines
   are parsed and the event is memorized.
5. Per component, its post-event effect, then ``update_after_event``.
   This is when grounded variables change and observations fan out.

Episode termination is polled after every acting turn.  The calls of a
batch are independent of one another, so ``run_holding_calls`` issues them
together when the model is slow enough for that to pay; either way each
call is recorded where the one-at-a-time sequence makes it (a query's
calls just before its effect), so a trace does not depend on the model's
speed.  If a call in a batch fails, everything before it in that sequence
still happens (calls recorded, effects applied, the event memorized) and
nothing after it does.  The one difference from asking one call at a time
is on the pre-event side: there every ``update_before_event`` has already
run, and the states snapshot is in the record, when a query fails.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable

from .agent import GenerativeAgent
from .errors import ConfigError, InvalidModelOutput, SimulationError
from .kernel import (
    ActionSpec,
    AgentAction,
    DEFAULT_CALL_TO_ACTION,
    ClockMode,
    EventStatement,
    GameClock,
    Observation,
    TraceRecord,
)
from .memory import MemoryBank
from .model import CallRecorder, GenerativeModel, run_holding_calls

DEFAULT_GM_PREAMBLE = (
    "Instructions: you are the game master of a social simulation. "
    "Decide what actually happens."
)

STATE_QUESTION = "What is the state of the world relevant to this attempted action?"
OUTCOME_QUESTION = (
    "What event results from this attempted action? "
    "Answer with a single event statement in the past tense."
)
VETOED_OUTCOME_QUESTION = (
    "The attempted action is invalid: {reason}. "
    "What event results? Answer with a single event statement in the past tense "
    "describing the failed attempt."
)
OBSERVERS_QUESTION = (
    "Who observes this event, and what exactly does each observer see? "
    "Answer with one line per observer in the form 'name: what they observe', or NONE."
)


Effect = Callable[[], None]


class GMComponent:
    """One slice of game-master state, e.g. an inventory or a location map.

    ``state()`` renders the full picture for the game master's own
    reasoning; ``partial_state(player)`` renders only what that player may
    know.  ``update_before_event`` sees the attempted action and may
    ``veto`` it; ``update_after_event`` sees the resolved event and is the
    place to emit observations and mutate grounded variables.

    A component that asks the model about the action or the event does so
    by overriding ``query_before_event`` or ``query_after_event``; only
    overridden queries join the game master's batches.  A query may run on
    a pool thread, together with the game master's own calls, so besides
    calling ``gm.model`` it only reads the action or event and the
    component's own state, and touches no game master, record, note,
    observation or other component.  It returns the effect to apply, or
    None.  The game master applies effects on its own thread in
    declaration order: pre-event effects after every
    ``update_before_event`` and before the outcome call, each post-event
    effect just before the same component's ``update_after_event``.  A
    pre-event effect may veto.  When more than one component vetoes, the
    last veto in that order stands: one made by a pre-event effect wins
    over one made in ``update_before_event``.
    """

    def __init__(self, name: str):
        self.name = name
        self.gm: "GameMaster | None" = None

    def bind(self, gm: "GameMaster") -> None:
        self.gm = gm

    def state(self) -> str:
        return ""

    def partial_state(self, player: str) -> str:
        return ""

    def update(self) -> None:
        pass

    def update_before_event(self, cause: AgentAction) -> None:
        pass

    def query_before_event(self, cause: AgentAction) -> Effect | None:
        return None

    def query_after_event(self, event: EventStatement) -> Effect | None:
        return None

    def update_after_event(self, event: EventStatement) -> None:
        pass

    def terminate_episode(self) -> bool:
        return False


def _asks(component: GMComponent, query: str) -> bool:
    # The default query hooks ask nothing, so they stay out of the batches.
    return getattr(type(component), query) is not getattr(GMComponent, query)


class ObservationDelivery(GMComponent):
    """Fans out the observations the game master judged to have happened.

    Drains the observer list parsed from the resolution chain of thought,
    and notifies the actor when their action was vetoed.  Scenario builders
    append this component last so grounded components have already reacted.
    """

    def __init__(self, name: str = "observation delivery"):
        super().__init__(name)

    def update_after_event(self, event: EventStatement) -> None:
        assert self.gm is not None
        for recipient, text in self.gm.drain_pending_observations():
            self.gm.emit_observation(self.name, recipient, text)
        veto = self.gm.veto_reason
        if veto is not None:
            self.gm.emit_observation(
                self.name,
                event.cause.actor,
                f"Your action was invalid: {veto}.",
            )


class PhraseTerminator(GMComponent):
    """Ends the episode once an event contains the configured phrase."""

    def __init__(self, phrase: str, name: str = "episode end watcher"):
        super().__init__(name)
        self.phrase = phrase
        self._triggered = False

    def update_after_event(self, event: EventStatement) -> None:
        if self.phrase.casefold() in event.text.casefold():
            self._triggered = True

    def terminate_episode(self) -> bool:
        return self._triggered


@dataclass
class EpisodeResult:
    """What an episode run leaves behind."""

    trace: list[TraceRecord]
    reason: str  # "component-terminated" | "max-steps" | "error"
    grounded: dict[str, str] = field(default_factory=dict)
    error: str = ""


class GameMaster:
    """Owns the clock, the players, grounded components, and the event log."""

    def __init__(
        self,
        model: GenerativeModel,
        players: list[GenerativeAgent],
        clock: GameClock,
        components: list[GMComponent] | None = None,
        action_spec: ActionSpec | None = None,
        memory: MemoryBank | None = None,
        preamble: str = DEFAULT_GM_PREAMBLE,
        rng: random.Random | None = None,
        name: str = "game master",
    ):
        names = [p.name for p in players]
        if len(set(names)) != len(names):
            raise ValueError("player names must be unique")
        self.name = name
        self.model = model
        self.players = list(players)
        self.clock = clock
        self.components = list(components or [])
        for component in self.components:
            component.bind(self)
        self.action_spec = action_spec or ActionSpec(DEFAULT_CALL_TO_ACTION)
        self.memory = memory if memory is not None else MemoryBank()
        self.preamble = preamble
        self.rng = rng or random.Random(0)
        self.notification_hub = None  # set when a digital universe attaches
        self.trace: list[TraceRecord] = []
        self.on_record: Callable[[TraceRecord], None] | None = None
        self._player_index = {p.name: p for p in self.players}
        for player in self.players:
            if player.clock is None:
                player.clock = self.clock
        self._turn_counter = 0
        self._veto_reason: str | None = None
        self._pending_observations: list[tuple[str, str]] = []
        self._current_record: TraceRecord | None = None
        self._models = self._collect_models()

    def _collect_models(self) -> list[GenerativeModel]:
        models: list[GenerativeModel] = [self.model]
        for player in self.players:
            if all(player.model is not m for m in models):
                models.append(player.model)
        return models

    def player(self, name: str) -> GenerativeAgent:
        try:
            return self._player_index[name]
        except KeyError:
            raise ConfigError(f"no player named {name!r}") from None

    # ---- per-turn plumbing -------------------------------------------------

    def veto(self, reason: str) -> None:
        """Mark the current attempted action as violating grounded state."""
        self._veto_reason = reason

    @property
    def veto_reason(self) -> str | None:
        return self._veto_reason

    def queue_event_observation(self, recipient: str, text: str) -> None:
        self._pending_observations.append((recipient, text))

    def drain_pending_observations(self) -> list[tuple[str, str]]:
        drained = self._pending_observations
        self._pending_observations = []
        return drained

    def emit_observation(self, source: str, player: str, text: str) -> None:
        """Deliver text to one player and log it to the current turn record."""
        target = self.player(player)
        observation = Observation(recipient=player, text=text, timestamp=self.clock.current_time)
        if self._current_record is not None:
            self._current_record.observations.append(observation)
        target.observe(observation)

    def audit_note(self, text: str) -> None:
        if self._current_record is not None:
            self._current_record.notes.append(text)

    # ---- the resolution sequence -------------------------------------------

    def pre_act_observe(self, player: GenerativeAgent) -> None:
        """Update each component and deliver its view to the player."""
        if self.notification_hub is not None:
            from .phone import deliver_notifications

            deliver_notifications(self.notification_hub, self, player.name)
        for component in self.components:
            component.update()
            partial = component.partial_state(player.name)
            if partial:
                self.emit_observation(component.name, player.name, partial)

    def _gm_context(self, action: AgentAction, gm_states: dict[str, str]) -> str:
        parts = [self.preamble, "\n"]
        for component in self.components:
            parts.append(f"{component.name}: {gm_states[component.name]}\n")
        parts.append(f"Current time: {self.clock.now_text()}.\n")
        parts.append(f"Attempted action by {action.actor}: {action.text}\n")
        return "".join(parts)

    def _parse_observers(self, raw: str) -> None:
        for line in raw.splitlines():
            line = line.strip().lstrip("-").strip()
            if not line or line.casefold() == "none":
                continue
            name, sep, text = line.partition(":")
            name = name.strip()
            text = text.strip()
            if not sep or not text:
                continue
            if name in self._player_index:
                self.queue_event_observation(name, text)
            else:
                self.audit_note(f"observer line ignored (unknown player): {line}")

    def update_from_player(self, action: AgentAction) -> EventStatement:
        """Resolve one attempted action into an event statement."""
        if action.actor not in self._player_index:
            raise ConfigError(f"action from unregistered player {action.actor!r}")
        self._veto_reason = None
        self._pending_observations = []
        for component in self.components:
            component.update_before_event(action)
        gm_states = {c.name: c.state() for c in self.components}
        if self._current_record is not None:
            self._current_record.gm_states = dict(gm_states)
        context = self._gm_context(action, gm_states)
        *before, state = run_holding_calls(
            [
                functools.partial(c.query_before_event, action)
                for c in self.components
                if _asks(c, "query_before_event")
            ]
            + [self._asker(context + STATE_QUESTION, "gm:resolve:state")],
            self.model,
        )
        for take in before:
            effect = take()
            if effect is not None:
                effect()
        relevant = state().strip()
        if self._veto_reason is not None:
            outcome_question = VETOED_OUTCOME_QUESTION.replace("{reason}", self._veto_reason)
        else:
            outcome_question = OUTCOME_QUESTION
        outcome = self.model.sample_text(
            context + f"Relevant state: {relevant}\n" + outcome_question,
            caller="gm:resolve:outcome",
        ).strip()
        if not outcome:
            raise InvalidModelOutput(f"game master gave no outcome for {action.actor}'s action")
        event = EventStatement(text=outcome, cause=action, timestamp=self.clock.current_time)
        asks = [_asks(c, "query_after_event") for c in self.components]
        observers, *after = run_holding_calls(
            [self._asker(f"{context}Event: {outcome}\n{OBSERVERS_QUESTION}", "gm:resolve:observers")]
            + [
                functools.partial(c.query_after_event, event)
                for c, c_asks in zip(self.components, asks)
                if c_asks
            ],
            self.model,
        )
        self._parse_observers(observers())
        self.memory.add(event.text, event.timestamp)
        if self._current_record is not None:
            self._current_record.event = event.text
        takers = iter(after)
        for component, c_asks in zip(self.components, asks):
            if c_asks:
                effect = next(takers)()
                if effect is not None:
                    effect()
            component.update_after_event(event)
        return event

    def _asker(self, prompt: str, caller: str) -> Callable[[], str]:
        return functools.partial(self.model.sample_text, prompt, caller=caller)

    # ---- the episode loop ----------------------------------------------------

    def begin_record(self, kind: str, step: int, actor: str) -> tuple[TraceRecord, CallRecorder]:
        record = TraceRecord(
            kind=kind,
            step=step,
            turn=self._turn_counter,
            timestamp=self.clock.current_time,
            actor=actor,
        )
        self._turn_counter += 1
        recorder = CallRecorder()
        for model in self._models:
            model.set_recorder(recorder)
        self._current_record = record
        return record, recorder

    def finish_record(self, record: TraceRecord, recorder: CallRecorder) -> None:
        record.model_calls = list(recorder.calls)
        for model in self._models:
            model.set_recorder(None)
        self._current_record = None
        self.trace.append(record)
        if self.on_record is not None:
            self.on_record(record)

    def _acting_turn(self, player: GenerativeAgent, step: int) -> bool:
        """Run one player's full turn; True if a component ended the episode."""
        record, recorder = self.begin_record("turn", step, player.name)
        try:
            self.pre_act_observe(player)
            record.agent_states = player.component_states()
            action = player.act(self.action_spec)
            record.prompts.append(player.last_prompt)
            record.action = action
            self.update_from_player(action)
            player.update_components()
        finally:
            self.finish_record(record, recorder)
        if self.clock.mode is ClockMode.ADVANCE_PER_PLAYER:
            self.clock.advance()
        # Poll every component exactly once, even after a hit.
        flags = [component.terminate_episode() for component in self.components]
        return any(flags)

    def run_episode(self, max_steps: int) -> EpisodeResult:
        """Run up to max_steps rounds, one freshly shuffled initiative each."""
        reason = "max-steps"
        error_text = ""
        try:
            for step in range(max_steps):
                order = list(self.players)
                self.rng.shuffle(order)
                terminated = False
                for player in order:
                    if self._acting_turn(player, step):
                        terminated = True
                        break
                if terminated:
                    reason = "component-terminated"
                    break
                if self.clock.mode is ClockMode.ADVANCE_PER_ROUND:
                    self.clock.advance()
        except SimulationError as exc:
            reason = "error"
            error_text = str(exc)
        grounded = {c.name: c.state() for c in self.components}
        return EpisodeResult(trace=list(self.trace), reason=reason, grounded=grounded, error=error_text)


def spawn_nested_game(
    parent_gm: GameMaster,
    child_factory: Callable[[list[GenerativeAgent], GameClock], "NestedScene"],
    participants: list[str],
    child_clock: GameClock,
    scene_minutes: int,
    label: str = "scene",
) -> list[str]:
    """Run a nested scene and merge its memories back into the parent.

    The child plays out on its own clock; control returns last-in
    first-out.  Every memory the child produces is appended to the parent
    game master's memory between scene markers, and the parent clock is
    charged exactly the configured scene duration.
    """
    agents = [parent_gm.player(name) for name in participants]
    moment = parent_gm.clock.current_time
    parent_gm.memory.add(f"[scene start: {label}]", moment)
    parent_gm.audit_note(f"scene start: {label}")
    child = child_factory(agents, child_clock)
    memories = child.run()
    for text in memories:
        parent_gm.memory.add(text, moment)
    parent_gm.memory.add(f"[scene end: {label}]", moment)
    parent_gm.audit_note(f"scene end: {label}")
    parent_gm.clock.advance_by(scene_minutes)
    return memories


class NestedScene:
    """Interface nested scenes implement: play out and report memories."""

    def run(self) -> list[str]:  # pragma: no cover - interface only
        raise NotImplementedError


class ConversationScene(NestedScene):
    """A spoken exchange among participants, played on its own clock.

    Participants speak round-robin; the dialogue so far travels in the call
    to action, each utterance is delivered to the other participants, and
    after every utterance the model is asked whether the conversation is
    over.  Memories are the utterances plus a closing line.
    """

    def __init__(
        self,
        participants: list[GenerativeAgent],
        model: GenerativeModel,
        clock: GameClock,
        premise: str = "",
        max_turns: int = 6,
    ):
        if not participants:
            raise ValueError("a conversation needs at least one participant")
        self.participants = list(participants)
        self.model = model
        self.clock = clock
        self.premise = premise
        self.max_turns = max_turns

    def run(self) -> list[str]:
        memories: list[str] = []
        if self.premise:
            memories.append(self.premise)
        dialogue: list[str] = []
        for turn in range(self.max_turns):
            speaker = self.participants[turn % len(self.participants)]
            so_far = "\n".join(dialogue) if dialogue else "(nobody has spoken yet)"
            spec = ActionSpec(
                f"The conversation so far:\n{so_far}\nWhat does {{name}} say next? It is {{time}}."
            )
            saved_clock = speaker.clock
            speaker.clock = self.clock
            try:
                utterance = speaker.act(spec)
            finally:
                speaker.clock = saved_clock
            line = f'{speaker.name} said: "{utterance.text}"'
            dialogue.append(line)
            memories.append(line)
            for listener in self.participants:
                if listener is not speaker:
                    listener.observe(
                        Observation(
                            recipient=listener.name, text=line, timestamp=self.clock.current_time
                        )
                    )
            self.clock.advance()
            _, done = self.model.sample_choice(
                "Dialogue:\n" + "\n".join(dialogue) + "\nIs the conversation over?",
                ("yes", "no"),
                caller="scene:conversation:done",
            )
            if done == "yes":
                break
        memories.append("The conversation ended.")
        return memories

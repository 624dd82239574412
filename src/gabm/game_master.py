"""The game master: resolves player actions into events and runs episodes.

Resolution of one acting turn follows a fixed sequence:

1. Components render their states (``state()``), which make up the
   resolution context.
2. One batch: the pre-event ask of each component that has one, and the
   game master's "relevant state" call.  Then each component's
   ``answer_before_event``, which may veto the action.
3. The outcome call, which alone reads the veto, gives the event.
4. One batch: the game master's "who observes what" call and the
   post-event ask of each component that has one.  The observer lines are
   parsed and the event goes into the turn record.
5. Each component's ``answer_after_event``.  This is when grounded
   variables change, and when a component may end the episode.  After
   every component's answer, the game master delivers the parsed observer
   lines and then, if the action was vetoed, tells the actor why.

After the resolution the actor starts its update pass, whose answers
nothing reads before the actor's own next turn.  So the turn's record is
closed but held unwritten, and the pass completes (its calls join the
record, its answers commit) at the first of: once the next turn's
pre-event batch is answered, just before its outcome call; the start of
the actor's own next turn; or the end of the rounds; then the record is
written.  Right after that completion, if the next player's model is slow
enough to overlap calls, its act call is asked ahead.  That prompt is
fixed by then: the player committed its states at the end of its own last
turn, and the clock moves only between turns, to a time known now.  The
act takes the answer if the prompt it builds is the same; otherwise, or if
the rounds end first, the call is dropped unrecorded.  Nothing is asked
ahead for the actor itself, whose pass has not run, or in a game with
phones, whose scenes charge the clock mid-turn.  So against a slow model
a market turn waits on three rounds: the trade check with the state call
(the previous pass still out), the outcome with the next act call, and the
observers call with the settlement extraction.  The trace is the one
asking one call at a time gives: a pass that fails leaves its record
written up to the failing call and the next turn's record unwritten.

An episode is rounds of acting turns, and it ends with the questionnaires:
each is given to every player in turn, off the game clock, whether a
component ended the rounds or the step budget did.  A ``SimulationError``
raised in either phase ends the episode as ``error``, and nothing after it
runs.

A component ends the episode with ``gm.end_episode()``; the rounds stop
once that turn is over.  Every prompt of a batch is built before any of
its answers is applied, so ``ask_all`` can issue the calls together when
the model is slow enough for that to pay; only the calls leave the game
master's thread.  Either way each call is recorded where the
one-at-a-time sequence makes it (a component's call just before its
answer hook), so a trace does not depend on the model's speed.  If a call
in a batch fails, everything before it in that sequence still happens
(calls recorded, answers applied, the event recorded) and nothing after
it does.

Components keep no reference to their game master: every hook that acts
on it gets it as its first argument, and nothing is bound at construction.
Players keep no clock: the game master passes its clock's time to ``act``,
and a nested scene passes the time of its own clock.

The game master keeps no memory of its own: no prompt of it reads one.
What happened lives in the trace, which ``on_record`` writes and nothing
keeps, and each player's memory keeps what that player did and observed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import timedelta
from typing import TYPE_CHECKING, Callable, Iterator

from .agent import GenerativeAgent, reject_duplicate_names
from .errors import ConfigError, InvalidModelOutput, NoMatchingOption, SimulationError
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
from .model import GenerativeModel, PooledAsks, ask_all, close_calls, open_calls, overlaps

if TYPE_CHECKING:
    from .phone import PhoneUniverse

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


class GMComponent:
    """One slice of game-master state, e.g. an inventory or a location map.

    ``state()`` renders the full picture for the game master's own
    reasoning; ``partial_state(player)`` renders only what that player may
    know.  On each side of the event a component is asked for a query and
    then given the answer: ``query_before_event`` and ``query_after_event``
    return a ``(prompt, caller)`` ask, or None to ask nothing, and the ask
    joins the game master's batch.  Once the batch is answered, every
    component's ``answer_before_event`` or ``answer_after_event`` runs, in
    declaration order, with ``gm.model``'s answer (None when it asked
    nothing).  The pre-event answer sees the attempted action and may
    ``gm.veto`` it; the last veto in declaration order stands, and from the
    outcome call on ``gm.veto_reason`` is that veto, or None.  The
    post-event answer sees the resolved event and is the place to emit
    observations, mutate grounded variables and ``gm.end_episode()``.

    The game master passes itself as the first argument of every query and
    answer hook, and runs them all on its own thread; a component holds no
    reference to it.  All of a batch's queries run before any of its
    answers is applied.
    """

    def __init__(self, name: str):
        self.name = name

    def state(self) -> str:
        return ""

    def partial_state(self, player: str) -> str:
        return ""

    def query_before_event(self, gm: GameMaster, cause: AgentAction) -> tuple[str, str] | None:
        return None

    def answer_before_event(self, gm: GameMaster, cause: AgentAction, answer: str | None) -> None:
        pass

    def query_after_event(self, gm: GameMaster, event: EventStatement) -> tuple[str, str] | None:
        return None

    def answer_after_event(self, gm: GameMaster, event: EventStatement, answer: str | None) -> None:
        pass


class PhraseTerminator(GMComponent):
    """Ends the episode once an event contains the configured phrase."""

    def __init__(self, phrase: str, name: str = "episode end watcher"):
        super().__init__(name)
        self.phrase = phrase

    def answer_after_event(self, gm: GameMaster, event: EventStatement, answer: str | None) -> None:
        if self.phrase.casefold() in event.text.casefold():
            gm.end_episode()


@dataclass
class EpisodeResult:
    """What an episode run leaves behind; its records went to ``on_record``."""

    reason: str  # "component-terminated" | "max-steps" | "error"
    grounded: dict[str, str] = field(default_factory=dict)
    error: str = ""


class Questionnaire:
    """An ordered battery of questions, administered off the game clock."""

    def __init__(self, name: str, questions: list[ActionSpec]):
        if not questions:
            raise ValueError("a questionnaire needs at least one question")
        self.name = name
        self.questions = list(questions)


class GameMaster:
    """Owns the clock, the players, grounded components, the event log and,
    in a game with phones, the game's one phone universe, ``phones``."""

    def __init__(
        self,
        model: GenerativeModel,
        players: list[GenerativeAgent],
        clock: GameClock,
        components: list[GMComponent] | None = None,
        action_spec: ActionSpec | None = None,
        preamble: str = DEFAULT_GM_PREAMBLE,
        rng: random.Random | None = None,
        questionnaires: list[Questionnaire] | None = None,
        phones: PhoneUniverse | None = None,
    ):
        names = [p.name for p in players]
        if len(set(names)) != len(names):
            raise ValueError("player names must be unique")
        self.model = model
        self.players = list(players)
        self.clock = clock
        self.components = list(components or [])
        reject_duplicate_names(self.components)
        self.action_spec = action_spec or ActionSpec(DEFAULT_CALL_TO_ACTION)
        self.preamble = preamble
        self.rng = rng or random.Random(0)
        self.questionnaires = list(questionnaires or [])
        self.phones = phones
        self.on_record: Callable[[TraceRecord], None] | None = None
        self._player_index = {p.name: p for p in self.players}
        self._turn_counter = 0
        self._veto_reason: str | None = None
        self._episode_ended = False
        self._current_record: TraceRecord | None = None
        self._record_calls = None  # the token of the open record's call list
        # The last turn's closed, unwritten record and its actor's update
        # pass completion, held until the pass completes.
        self._held_turn: tuple[TraceRecord, Callable[[], None]] | None = None
        # The next player's act call, asked while the last turn resolved.
        self._asked_ahead: PooledAsks | None = None

    def player(self, name: str) -> GenerativeAgent:
        try:
            return self._player_index[name]
        except KeyError:
            raise ConfigError(f"no player named {name!r}") from None

    # ---- per-turn plumbing -------------------------------------------------

    def veto(self, reason: str) -> None:
        """Mark the current attempted action as violating grounded state."""
        self._veto_reason = reason

    def end_episode(self) -> None:
        """End the episode once the current turn is over."""
        self._episode_ended = True

    @property
    def veto_reason(self) -> str | None:
        """The reason the action being resolved was vetoed, or None."""
        return self._veto_reason

    def emit_observation(self, player: str, text: str) -> None:
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
        """Deliver the player's phone notifications, then each component's view."""
        if self.phones is not None:
            from .phone import deliver_notifications

            deliver_notifications(self, player.name)
        for component in self.components:
            partial = component.partial_state(player.name)
            if partial:
                self.emit_observation(player.name, partial)

    def _gm_context(self, action: AgentAction, gm_states: dict[str, str]) -> str:
        parts = [self.preamble, "\n"]
        for component in self.components:
            parts.append(f"{component.name}: {gm_states[component.name]}\n")
        parts.append(f"Current time: {self.clock.now_text()}.\n")
        parts.append(f"Attempted action by {action.actor}: {action.text}\n")
        return "".join(parts)

    def _parse_observers(self, raw: str) -> list[tuple[str, str]]:
        """The (player, text) pairs of the observer lines, in order."""
        observed = []
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
                observed.append((name, text))
            else:
                self.audit_note(f"observer line ignored (unknown player): {line}")
        return observed

    def update_from_player(
        self, action: AgentAction, before_outcome: Callable[[], None] | None = None
    ) -> EventStatement:
        """Resolve one attempted action into an event statement.

        ``before_outcome``, if given, runs once the pre-event answers are
        applied, just before the outcome call.
        """
        if action.actor not in self._player_index:
            raise ConfigError(f"action from unregistered player {action.actor!r}")
        self._veto_reason = None
        gm_states = {c.name: c.state() for c in self.components}
        if self._current_record is not None:
            self._current_record.gm_states = dict(gm_states)
        context = self._gm_context(action, gm_states)
        before = [c.query_before_event(self, action) for c in self.components]
        answers = ask_all(
            self.model,
            [ask for ask in before if ask is not None] + [(context + STATE_QUESTION, "gm:resolve:state")],
        )
        for component, ask in zip(self.components, before):
            component.answer_before_event(self, action, None if ask is None else next(answers))
        relevant = next(answers).strip()
        if before_outcome is not None:
            before_outcome()
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
        after = [c.query_after_event(self, event) for c in self.components]
        answers = ask_all(
            self.model,
            [(f"{context}Event: {outcome}\n{OBSERVERS_QUESTION}", "gm:resolve:observers")]
            + [ask for ask in after if ask is not None],
        )
        observed = self._parse_observers(next(answers))
        if self._current_record is not None:
            self._current_record.event = event.text
        for component, ask in zip(self.components, after):
            component.answer_after_event(self, event, None if ask is None else next(answers))
        for name, text in observed:
            self.emit_observation(name, text)
        if self._veto_reason is not None:
            self.emit_observation(action.actor, f"Your action was invalid: {self._veto_reason}.")
        return event

    # ---- the episode loop ----------------------------------------------------

    def begin_record(self, kind: str, step: int, actor: str) -> TraceRecord:
        """Open a record; every model call made here until finish_record goes into it."""
        record = TraceRecord(
            kind=kind,
            step=step,
            turn=self._turn_counter,
            timestamp=self.clock.current_time,
            actor=actor,
        )
        self._turn_counter += 1
        self._current_record = record
        self._record_calls = open_calls(record.model_calls)
        return record

    def finish_record(self, record: TraceRecord) -> None:
        """Close the open record and write it."""
        self._close_record()
        self._write_record(record)

    def _close_record(self) -> None:
        close_calls(self._record_calls)
        self._record_calls = None
        self._current_record = None

    def _write_record(self, record: TraceRecord) -> None:
        if self.on_record is not None:
            self.on_record(record)

    def _complete_update_pass(self) -> None:
        """Complete the held update pass into its turn record, then write
        the record, which is written even if the pass fails."""
        if self._held_turn is None:
            return
        record, complete = self._held_turn
        self._held_turn = None
        token = open_calls(record.model_calls)
        try:
            complete()
        finally:
            close_calls(token)
            self._write_record(record)

    def _acting_turn(
        self, player: GenerativeAgent, step: int, upcoming: tuple[int, GenerativeAgent] | None
    ) -> bool:
        """Run one player's full turn; True if a component ended the episode.

        ``upcoming`` is the step and player of the next turn, if there is
        one.  The act prompt is built from the component states the player
        committed at the end of its previous turn: ``update_components``
        runs after the action is resolved, so what this turn's briefing
        told the player reaches its act prompt one turn late.

        Nothing reads the answers of that update pass before the player's
        next turn, so the turn ends with its record closed but unwritten,
        holding the pass's completion.  The pass completes, and the record
        is written, at the first of: once the next turn's pre-event batch
        is answered, just before its outcome call; the start of the
        player's own next turn; the end of the rounds.  Until then a slow
        model answers the pass while the next player acts and the game
        master checks its action.  An observation the player gets in the
        meantime waits for its next pass: a pass commits only what was
        observed before its prompts were built.  If the pass fails, its
        record is written with the calls made before the failure and the
        next turn's record never is, as when the pass ran to its end before
        the next turn began.

        Right after that completion the upcoming player's act call is asked
        ahead (``_ask_ahead``), so against a slow model it is out with this
        turn's outcome call.
        """
        if self._held_turn is not None and self._held_turn[0].actor == player.name:
            self._complete_update_pass()
        record = self.begin_record("turn", step, player.name)
        # False while a held pass has not completed, and once it failed.
        previous_written = self._held_turn is None

        def before_outcome() -> None:
            nonlocal previous_written
            self._complete_update_pass()
            previous_written = True
            self._ask_ahead(player, step, upcoming)

        try:
            try:
                self.pre_act_observe(player)
                record.agent_states = player.component_states()
                action = player.act(self.action_spec, self.clock.current_time, self._asked_ahead)
                self._asked_ahead = None
                record.action = action
                self.update_from_player(action, before_outcome)
            finally:
                # A turn that failed before its outcome call still completes
                # the held pass, and a failure of the pass wins.
                if self._held_turn is not None:
                    self._complete_update_pass()
                    previous_written = True
            complete = player.update_components()
        except BaseException:
            self._close_record()
            if previous_written:
                self._write_record(record)
            raise
        self._close_record()
        self._held_turn = (record, complete)
        if self.clock.mode is ClockMode.ADVANCE_PER_PLAYER:
            self.clock.advance()
        return self._episode_ended

    def _ask_ahead(
        self, actor: GenerativeAgent, step: int, upcoming: tuple[int, GenerativeAgent] | None
    ) -> None:
        """Ask the upcoming player's act call now, if its model ``overlaps``.

        That prompt is already fixed: the player committed its states at
        the end of its own last turn, and the clock shows the time it will
        show then, one step on in ``player`` mode or across a step in
        ``round`` mode.  Nothing is asked for the actor itself, whose pass
        has not run, nor in a game with phones, whose scenes charge the
        clock mid-turn.  The player's act takes the answer only if its own
        prompt is the same; otherwise, and if the rounds end first, the
        call is dropped unrecorded.
        """
        if upcoming is None or self.phones is not None:
            return
        next_step, player = upcoming
        if player is actor or not overlaps(player.model):
            return
        moves = self.clock.mode is ClockMode.ADVANCE_PER_PLAYER or next_step != step
        try:
            then = self.clock.current_time + timedelta(minutes=self.clock.step_minutes if moves else 0)
            ask = player.act_ask(self.action_spec, then)
        except Exception:
            # A clock past its last minute, or a state that cannot render:
            # the player's own turn, if it comes, meets the failure there.
            return
        self._asked_ahead = PooledAsks(player.model, [ask])

    def _initiative(self, max_steps: int) -> Iterator[tuple[int, GenerativeAgent]]:
        """The step and player of each turn: each step, one fresh shuffle."""
        for step in range(max_steps):
            order = list(self.players)
            self.rng.shuffle(order)
            for player in order:
                yield step, player

    def run_episode(self, max_steps: int) -> EpisodeResult:
        """Run up to max_steps rounds, one freshly shuffled initiative each,
        then every questionnaire for every player in order."""
        reason = "max-steps"
        error_text = ""
        try:
            try:
                turns = self._initiative(max_steps)
                upcoming = next(turns, None)
                while upcoming is not None:
                    step, player = upcoming
                    # At a step's last turn, this draws the next step's order.
                    upcoming = next(turns, None)
                    if self._acting_turn(player, step, upcoming):
                        reason = "component-terminated"
                        break
                    step_ends = upcoming is None or upcoming[0] != step
                    if step_ends and self.clock.mode is ClockMode.ADVANCE_PER_ROUND:
                        self.clock.advance()
            finally:
                if self._asked_ahead is not None:
                    self._asked_ahead.wait()
                    self._asked_ahead = None
                self._complete_update_pass()
            for questionnaire in self.questionnaires:
                for player in self.players:
                    administer_questionnaire(questionnaire, self, player.name)
        except SimulationError as exc:
            reason = "error"
            error_text = str(exc)
        grounded = {c.name: c.state() for c in self.components}
        return EpisodeResult(reason=reason, grounded=grounded, error=error_text)


def administer_questionnaire(
    questionnaire: Questionnaire, gm: GameMaster, player_name: str
) -> list[str]:
    """Ask one player every question; the clock and grounded state hold still.

    Each question becomes one trace record tagged "questionnaire".  A model
    that keeps answering garbage yields the literal answer "no-response".
    Returns the answers in question order.
    """
    player: GenerativeAgent = gm.player(player_name)
    answers: list[str] = []
    for spec in questionnaire.questions:
        record = gm.begin_record("questionnaire", gm.clock.step_index, player_name)
        try:
            try:
                action = player.act(spec, gm.clock.current_time)
                answer = action.text
                record.action = action
            except (InvalidModelOutput, NoMatchingOption):
                answer = "no-response"
                record.notes.append(f"{questionnaire.name}: no usable answer")
            record.agent_states = player.component_states()
        finally:
            gm.finish_record(record)
        answers.append(answer)
    return answers


def spawn_nested_game(
    parent_gm: GameMaster, play: Callable[[], None], scene_minutes: int, label: str = "scene"
) -> None:
    """Run a nested scene between scene markers in the open record.

    ``play`` plays the scene out; the caller builds it, with its players
    resolved through ``parent_gm.player`` and its own clock.  A scene may
    spawn scenes of its own, and control returns last-in first-out.  The
    ``scene start:`` and ``scene end:`` notes bracket whatever the scene
    notes, and the parent clock is then charged exactly ``scene_minutes``.
    """
    parent_gm.audit_note(f"scene start: {label}")
    play()
    parent_gm.audit_note(f"scene end: {label}")
    parent_gm.clock.advance_by(scene_minutes)

"""Generative agents assembled from named components.

An agent's behavior is sampled in two steps.  Acting concatenates the
instruction preamble, every component's current state in a fixed order, and
the rendered call to action, then samples the model once (plus retries for
numeric answers).  Component updates run separately: each due component
stages its next state while reading the pre-update states of its peers, and
all staged states publish together once the pass completes.  That two-phase
swap keeps reads consistent no matter how updates are scheduled, which is
what lets the updates of one pass run in parallel.
"""

from __future__ import annotations

import functools
from collections import deque
from datetime import datetime
from decimal import Decimal

from .errors import EpisodeAbort, InvalidModelOutput, NotANumber
from .kernel import ActionSpec, AgentAction, GameClock, Observation, OutputKind, parse_float_token
from .memory import MemoryBank
from .model import GenerativeModel, render_choice_prompt, run_in_order

DEFAULT_PREAMBLE = "Instructions: this is a social simulation. Answer as {name} would."
FLOAT_SUFFIX = "Answer with a single number."
FLOAT_RETRY_BUDGET = 3
_FLOAT_REPAIR = "Answer with a single number and nothing else."
RETRIEVAL_MODES = ("recent", "associative", "none")

# Fallback timestamp for agents acting outside any clocked episode.
EPOCH = datetime(1970, 1, 1)


class AgentComponent:
    """One named slice of an agent's working state.

    ``state()`` is side-effect free.  ``update()`` is the only mutator and
    must stage its result through ``publish``; the owning agent commits all
    staged states after the update pass.  ``cadence`` is "step" (every
    update pass), an integer N (every Nth pass), or "manual" (never run by
    the agent's own scheduler).
    """

    def __init__(self, name: str, cadence: int | str = "step"):
        if isinstance(cadence, int) and cadence < 1:
            raise ValueError("cadence interval must be >= 1")
        self.name = name
        self.cadence = cadence
        self._state = ""
        self._staged: str | None = None
        self.agent: "GenerativeAgent | None" = None

    def bind(self, agent: "GenerativeAgent") -> None:
        self.agent = agent

    def state(self) -> str:
        return self._state

    def publish(self, new_state: str) -> None:
        self._staged = new_state

    def commit(self) -> None:
        if self._staged is not None:
            self._state = self._staged
            self._staged = None

    def due(self, pass_index: int) -> bool:
        if self.cadence == "step":
            return True
        if self.cadence == "manual":
            return False
        return pass_index % int(self.cadence) == 0

    def update(self) -> None:  # pragma: no cover - default is a no-op
        pass

    def observe(self, observation: Observation) -> None:
        """Hook for components subscribing to the observation stream."""


class ConstantComponent(AgentComponent):
    """Fixed text, e.g. a goal or role description from the scenario."""

    def __init__(self, name: str, text: str):
        super().__init__(name, cadence="manual")
        self._state = text


class ObservationBuffer(AgentComponent):
    """Rolling window over the most recent observations, newest last."""

    def __init__(self, name: str = "recent observations", max_items: int = 20):
        super().__init__(name)
        self._window: deque[str] = deque(maxlen=max_items)
        self._pending: list[str] = []

    def observe(self, observation: Observation) -> None:
        self._pending.append(observation.text)

    def update(self) -> None:
        for text in self._pending:
            self._window.append(text)
        self._pending.clear()
        self.publish("\n".join(self._window))


class ModelQueryComponent(AgentComponent):
    """State produced by asking the model a fixed question each update.

    The update prompt stacks: the agent preamble, optional retrieved
    memories, the pre-update states of any listed peer components, and the
    question.  Retrieval modes: "recent" (last k records), "associative"
    (query defaults to the agent's name), or "none".
    """

    def __init__(
        self,
        name: str,
        question: str,
        retrieval: str = "recent",
        k: int = 25,
        query_text: str | None = None,
        reads: tuple[str, ...] = (),
        cadence: int | str = "step",
        initial_state: str = "",
    ):
        if retrieval not in RETRIEVAL_MODES:
            raise ValueError(f"unknown retrieval mode {retrieval!r}")
        super().__init__(name, cadence)
        self.question = question
        self.retrieval = retrieval
        self.k = k
        self.query_text = query_text
        self.reads = reads
        self._state = initial_state

    def _retrieved(self) -> list[str]:
        assert self.agent is not None
        bank = self.agent.memory
        if self.retrieval == "recent":
            return [r.text for r in bank.retrieve_recent(self.k)]
        if self.retrieval == "associative":
            query = self.query_text or self.agent.name
            return [r.text for r in bank.retrieve_associative(query, self.k)]
        return []

    def update(self) -> None:
        assert self.agent is not None
        name = self.agent.name
        parts = [self.agent.preamble_text(), "\n"]
        memories = self._retrieved()
        if memories:
            parts.append(f"Memories of {name}:\n")
            for text in memories:
                parts.append(f"- {text}\n")
        for peer_name in self.reads:
            peer = self.agent.component(peer_name)
            parts.append(f"{peer.name}: {peer.state()}\n")
        parts.append(f"Question: {self.question.replace('{name}', name)}\nAnswer:")
        answer = self.agent.model.sample_text(
            "".join(parts), caller=f"component:{name}/{self.name}:update"
        )
        self.publish(answer.strip())


class GenerativeAgent:
    """A named agent: memory bank, ordered components, and a model handle.

    The component list is fixed at construction and component names must be
    unique.  ``observe`` appends to memory and notifies subscribing
    components; ``act`` samples one action for a given spec and memorizes
    the chosen action text verbatim.
    """

    def __init__(
        self,
        name: str,
        model: GenerativeModel,
        memory: MemoryBank | None = None,
        components: list[AgentComponent] | None = None,
        preamble: str = DEFAULT_PREAMBLE,
        clock: GameClock | None = None,
    ):
        if not name:
            raise ValueError("agent needs a non-empty name")
        self.name = name
        self.model = model
        self.memory = memory if memory is not None else MemoryBank()
        self.components = list(components or [])
        seen = set()
        for component in self.components:
            if component.name in seen:
                raise ValueError(f"duplicate component name {component.name!r}")
            seen.add(component.name)
            component.bind(self)
        self.preamble = preamble
        self.clock = clock
        self.last_prompt = ""
        self._update_passes = 0

    def preamble_text(self) -> str:
        return self.preamble.replace("{name}", self.name)

    def component(self, name: str) -> AgentComponent:
        for candidate in self.components:
            if candidate.name == name:
                return candidate
        raise KeyError(f"agent {self.name} has no component {name!r}")

    def component_states(self) -> dict[str, str]:
        return {component.name: component.state() for component in self.components}

    def now(self) -> datetime:
        return self.clock.current_time if self.clock is not None else EPOCH

    def now_text(self) -> str:
        from .kernel import format_time

        return format_time(self.now())

    def observe(self, observation: Observation) -> None:
        if observation.recipient != self.name:
            raise ValueError(f"observation for {observation.recipient!r} sent to {self.name!r}")
        self.memory.add(observation.text, observation.timestamp)
        for component in self.components:
            component.observe(observation)

    def update_components(self) -> None:
        """Run one two-phase update pass over all due components.

        Every due component's update reads peers' pre-pass states, so the
        updates do not depend on each other: ``run_in_order`` issues them
        together when the model is slow enough for that to pay, and the
        trace records their model calls in declaration order either way.
        Staged results publish together afterwards.  A component failure
        aborts the episode naming the first failing component in
        declaration order; later components' calls are not recorded.
        """
        pass_index = self._update_passes
        self._update_passes += 1
        due = [c for c in self.components if c.due(pass_index)]
        run_in_order([functools.partial(self._update_one, c) for c in due], self.model)
        for component in due:
            component.commit()

    def _update_one(self, component: AgentComponent) -> None:
        try:
            component.update()
        except Exception as exc:
            raise EpisodeAbort(
                f"component {self.name}/{component.name} failed during update: {exc}"
            ) from exc

    def context_of_action(self, spec: ActionSpec) -> str:
        """Render the full acting prompt for one spec."""
        call = spec.render(self.name, self.now_text())
        if spec.output_kind is OutputKind.FLOAT:
            call = f"{call} {FLOAT_SUFFIX}"
        sections = "".join([f"{c.name}: {c.state()}\n" for c in self.components])
        return self.preamble_text() + "\n" + sections + call

    def act(self, spec: ActionSpec) -> AgentAction:
        prompt = self.context_of_action(spec)
        self.last_prompt = prompt
        caller = f"agent:{self.name}:act"
        if spec.output_kind is OutputKind.CHOICE:
            _, text = self.model.sample_choice(
                render_choice_prompt(prompt, spec.options), spec.options, caller=caller
            )
        elif spec.output_kind is OutputKind.FLOAT:
            text = str(self._sample_float(prompt, caller))
        else:
            text = self.model.sample_text(prompt, caller=caller).strip()
            if not text:
                raise InvalidModelOutput(f"{self.name} produced an empty action")
        action = AgentAction(actor=self.name, text=text, spec=spec, timestamp=self.now())
        self.memory.add(text, self.now())
        return action

    def _sample_float(self, prompt: str, caller: str) -> Decimal:
        attempt_prompt = prompt
        last_error: NotANumber | None = None
        for attempt in range(1 + FLOAT_RETRY_BUDGET):
            if attempt > 0:
                attempt_prompt = attempt_prompt + "\n" + _FLOAT_REPAIR
            raw = self.model.sample_text(attempt_prompt, caller=caller)
            try:
                return parse_float_token(raw)
            except NotANumber as exc:
                last_error = exc
        raise InvalidModelOutput(f"{self.name} gave no numeric answer: {last_error}")


SITUATION_QUESTION = "What kind of situation is this?"
IDENTITY_QUESTION = "What kind of person is {name}?"
DISPOSITION_QUESTION = "What does a person such as {name} do in a situation such as this?"


def three_questions_components(k: int = 25) -> list[AgentComponent]:
    """The compact self-ask chain: situation, identity, likely behavior.

    The situation component summarizes recent memories; the identity
    component retrieves associatively by the agent's own name; the third
    conditions on the other two components' states.
    """
    situation = ModelQueryComponent(
        name="situation",
        question=SITUATION_QUESTION,
        retrieval="recent",
        k=k,
    )
    identity = ModelQueryComponent(
        name="identity",
        question=IDENTITY_QUESTION,
        retrieval="associative",
        k=k,
    )
    disposition = ModelQueryComponent(
        name="disposition",
        question=DISPOSITION_QUESTION,
        retrieval="none",
        reads=("situation", "identity"),
    )
    return [situation, identity, disposition]

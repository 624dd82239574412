"""Generative agents assembled from named components.

An agent's behavior is sampled in two steps.  Acting concatenates the
instruction preamble, every component's current state in a fixed order, and
the rendered call to action, then samples the model once (plus retries for
numeric answers).  That first call may have been asked ahead of the act;
``act`` takes its answer only if it asked the prompt built at the act.
Component updates run separately: every component first builds the prompt
of its model call, if it has one, from memory and its peers' pre-update
states; once the calls are answered, each commits its answer, in
declaration order.  Nothing changes until every prompt is built, so the
calls of one pass are independent and can go out together.
``update_components`` builds the prompts and issues the calls, then
returns the pass's completion, which takes the answers and commits them:
against a slow model the caller can do other work, such as the next
player's resolution, while the calls are out.

Components keep no reference to their agent: the agent passes itself to
each hook, and nothing is bound at construction.  An agent keeps no clock
either: whoever asks it to act passes the time it acts at, so a nested
scene on its own clock hands its own time in.
"""

from __future__ import annotations

from collections import deque
from datetime import datetime
from decimal import Decimal
from typing import Callable

from .errors import EpisodeAbort, InvalidModelOutput, NotANumber
from .kernel import ActionSpec, AgentAction, Observation, OutputKind, format_time, parse_float_token
from .memory import MemoryBank
from .model import GenerativeModel, PooledAsks, overlaps, render_choice_prompt, sample_repaired

DEFAULT_PREAMBLE = "Instructions: this is a social simulation. Answer as {name} would."
FLOAT_SUFFIX = "Answer with a single number."
_FLOAT_REPAIR = "Answer with a single number and nothing else."
RETRIEVAL_MODES = ("recent", "associative", "none")


class AgentComponent:
    """One named slice of an agent's working state.

    ``state()`` is side-effect free.  An update pass calls ``prompt(agent)``,
    the text to ask the agent's model or None, then ``commit(agent,
    answer)`` with the answer (None when nothing was asked), the only place
    the state changes.  The agent may observe between the two, while the
    pass's calls are out; what it observes then belongs to the next pass.
    A component holds no reference to its agent.
    """

    def __init__(self, name: str):
        self.name = name
        self._state = ""

    def state(self) -> str:
        return self._state

    def prompt(self, agent: "GenerativeAgent") -> str | None:
        return None

    def commit(self, agent: "GenerativeAgent", answer: str | None) -> None:
        pass

    def observe(self, observation: Observation) -> None:
        """Hook for components subscribing to the observation stream."""


class ConstantComponent(AgentComponent):
    """Fixed text, e.g. a goal or role description from the scenario; an
    update pass asks nothing and changes nothing."""

    def __init__(self, name: str, text: str):
        super().__init__(name)
        self._state = text


class ObservationBuffer(AgentComponent):
    """Rolling window over the most recent observations, newest last."""

    def __init__(self, name: str = "recent observations", max_items: int = 20):
        super().__init__(name)
        self._window: deque[str] = deque(maxlen=max_items)
        self._pending: list[str] = []
        self._taken = 0  # how many pending observations the pass commits

    def observe(self, observation: Observation) -> None:
        self._pending.append(observation.text)

    def prompt(self, agent: "GenerativeAgent") -> None:
        # A pass commits what was pending when its prompts were built; what
        # arrives while its calls are out waits for the next pass.
        self._taken = len(self._pending)
        return None

    def commit(self, agent: "GenerativeAgent", answer: str | None) -> None:
        self._window.extend(self._pending[: self._taken])
        del self._pending[: self._taken]
        self._state = "\n".join(self._window)


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
        initial_state: str = "",
    ):
        if retrieval not in RETRIEVAL_MODES:
            raise ValueError(f"unknown retrieval mode {retrieval!r}")
        super().__init__(name)
        self.question = question
        self.retrieval = retrieval
        self.k = k
        self.query_text = query_text
        self.reads = reads
        self._state = initial_state

    def _retrieved(self, agent: "GenerativeAgent") -> list[str]:
        bank = agent.memory
        if self.retrieval == "recent":
            return [bank.texts[i] for i in bank.retrieve_recent(self.k)]
        if self.retrieval == "associative":
            query = self.query_text or agent.name
            return [bank.texts[i] for i in bank.retrieve_associative(query, self.k)]
        return []

    def prompt(self, agent: "GenerativeAgent") -> str:
        name = agent.name
        parts = [agent.preamble_text(), "\n"]
        memories = self._retrieved(agent)
        if memories:
            parts.append(f"Memories of {name}:\n")
            for text in memories:
                parts.append(f"- {text}\n")
        for peer_name in self.reads:
            peer = agent.component(peer_name)
            parts.append(f"{peer.name}: {peer.state()}\n")
        parts.append(f"Question: {self.question.replace('{name}', name)}\nAnswer:")
        return "".join(parts)

    def commit(self, agent: "GenerativeAgent", answer: str | None) -> None:
        self._state = answer.strip()


def reject_duplicate_names(components) -> None:
    """Raise ValueError naming the first component whose name repeats."""
    seen = set()
    for component in components:
        if component.name in seen:
            raise ValueError(f"duplicate component name {component.name!r}")
        seen.add(component.name)


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
    ):
        if not name:
            raise ValueError("agent needs a non-empty name")
        self.name = name
        self.model = model
        self.memory = memory if memory is not None else MemoryBank()
        self.components = list(components or [])
        reject_duplicate_names(self.components)

    def preamble_text(self) -> str:
        return DEFAULT_PREAMBLE.replace("{name}", self.name)

    def component(self, name: str) -> AgentComponent:
        for candidate in self.components:
            if candidate.name == name:
                return candidate
        raise KeyError(f"agent {self.name} has no component {name!r}")

    def component_states(self) -> dict[str, str]:
        return {component.name: component.state() for component in self.components}

    def observe(self, observation: Observation) -> None:
        if observation.recipient != self.name:
            raise ValueError(f"observation for {observation.recipient!r} sent to {self.name!r}")
        self.memory.add(observation.text, observation.timestamp)
        for component in self.components:
            component.observe(observation)

    def update_components(self) -> Callable[[], None]:
        """Start one update pass over all components; return its completion.

        Every prompt is built here, before any answer commits, so each
        reads its peers' pre-pass states.  With a model that ``overlaps``
        the calls go out together on the pool and stay out until the
        completion is called; otherwise they are made here, one at a time
        in declaration order, recorded in the call list open now.  The
        completion takes the answers, recording the pool's calls in
        declaration order into the call list open where it runs, and
        commits them in declaration order; the caller runs it before the
        agent observes or acts again.  A failure aborts the episode naming
        the failing component; later components' calls are not recorded.
        """
        model = self.model
        prompts: list[str | None] = []
        try:
            for component in self.components:
                prompts.append(component.prompt(self))
            asking = [(c, p) for c, p in zip(self.components, prompts) if p is not None]
            if asking and overlaps(model):
                answers = PooledAsks(model, [(p, self._update_caller(c)) for c, p in asking]).answers()
            else:
                made = []
                for component, prompt in asking:
                    made.append(model.sample_text(prompt, caller=self._update_caller(component)))
                answers = iter(made)
        except Exception as exc:
            # ``component`` is the one whose prompt or call failed.
            raise self._update_failure(component, exc) from exc

        def complete() -> None:
            for component, prompt in zip(self.components, prompts):
                try:
                    component.commit(self, None if prompt is None else next(answers))
                except Exception as exc:
                    raise self._update_failure(component, exc) from exc

        return complete

    def _update_caller(self, component: AgentComponent) -> str:
        return f"component:{self.name}/{component.name}:update"

    def _update_failure(self, component: AgentComponent, exc: Exception) -> EpisodeAbort:
        return EpisodeAbort(f"component {self.name}/{component.name} failed during update: {exc}")

    def context_of_action(self, spec: ActionSpec, now: datetime) -> str:
        """Render the full acting prompt for one spec at time ``now``."""
        call = spec.render(self.name, format_time(now))
        if spec.output_kind is OutputKind.FLOAT:
            call = f"{call} {FLOAT_SUFFIX}"
        sections = "".join([f"{c.name}: {c.state()}\n" for c in self.components])
        return self.preamble_text() + "\n" + sections + call

    def act_ask(self, spec: ActionSpec, now: datetime) -> tuple[str, str]:
        """The ``(prompt, caller)`` of ``act``'s first call for one spec at
        time ``now``; a repair re-ask appends to that prompt."""
        prompt = self.context_of_action(spec, now)
        if spec.output_kind is OutputKind.CHOICE:
            prompt = render_choice_prompt(prompt, spec.options)
        return prompt, f"agent:{self.name}:act"

    def act(self, spec: ActionSpec, now: datetime, ahead: PooledAsks | None = None) -> AgentAction:
        """Sample one action at time ``now``; the action is memorized at that time.

        ``ahead`` is a first call asked before the act.  Its answer stands
        in for the first call's, recorded where that call would be, only if
        it asked just the ask built now; otherwise its job is waited for
        and dropped, and the first call is made here.  A choice or a number
        that needs repair is re-asked here either way.
        """
        prompt, caller = self.act_ask(spec, now)
        first = None
        if ahead is not None:
            if ahead.asks == [(prompt, caller)]:
                first = next(ahead.answers())
            else:
                ahead.wait()
        if spec.output_kind is OutputKind.CHOICE:
            _, text = self.model.sample_choice(prompt, spec.options, caller=caller, first=first)
        elif spec.output_kind is OutputKind.FLOAT:
            text = str(self._sample_float(prompt, caller, first))
        else:
            if first is None:
                first = self.model.sample_text(prompt, caller=caller)
            text = first.strip()
            if not text:
                raise InvalidModelOutput(f"{self.name} produced an empty action")
        action = AgentAction(actor=self.name, text=text, spec=spec, timestamp=now)
        self.memory.add(text, now)
        return action

    def _sample_float(self, prompt: str, caller: str, first: str | None) -> Decimal:
        try:
            return sample_repaired(
                self.model, prompt, parse_float_token, NotANumber, _FLOAT_REPAIR, caller=caller, first=first
            )
        except NotANumber as exc:
            raise InvalidModelOutput(f"{self.name} gave no numeric answer: {exc}") from None


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

"""Core value types for simulated time, actions, events, and trace records.

Everything here is a plain value type plus a handful of pure parsing
functions.  The simulation loop owns the clock and mutates it from a single
thread; all other types are safe to copy and serialize.

Times have minute resolution throughout.  Trace records round-trip through
JSON byte-exactly: dictionaries are emitted with sorted keys and compact
separators, and decimal quantities travel as strings so no float formatting
ambiguity can creep in.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from decimal import Decimal, InvalidOperation

from .errors import EpisodeAbort, NoMatchingOption, NotANumber

TIME_FORMAT = "%Y-%m-%dT%H:%M"

# First token that reads as a decimal number, sign and exponent allowed.
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def format_time(moment: datetime) -> str:
    return moment.strftime(TIME_FORMAT)


def parse_time(text: str) -> datetime:
    return datetime.strptime(text, TIME_FORMAT)


def floor_to_minute(moment: datetime) -> datetime:
    return moment.replace(second=0, microsecond=0)


class ClockMode(enum.Enum):
    """When the clock ticks: after every acting turn, or after a full round."""

    ADVANCE_PER_PLAYER = "player"
    ADVANCE_PER_ROUND = "round"


@dataclass
class GameClock:
    """Simulated wall clock.

    ``advance`` moves time forward by one step and bumps the step index.
    ``advance_by`` moves time without consuming a step; nested scenes use it
    to charge their duration to the parent game.  Time never moves backward,
    and a move past the last representable minute raises EpisodeAbort.
    """

    current_time: datetime
    step_minutes: int = 60
    mode: ClockMode = ClockMode.ADVANCE_PER_ROUND
    step_index: int = 0

    def __post_init__(self):
        if not isinstance(self.step_minutes, int) or self.step_minutes < 0:
            raise ValueError("step_minutes must be a non-negative integer")
        self.current_time = floor_to_minute(self.current_time)

    def advance(self) -> "GameClock":
        self.advance_by(self.step_minutes)
        self.step_index += 1
        return self

    def advance_by(self, minutes: int) -> "GameClock":
        if minutes < 0:
            raise ValueError("cannot move the clock backward")
        try:
            self.current_time += timedelta(minutes=minutes)
        except OverflowError as exc:
            message = f"the clock cannot move {minutes} minutes past {self.now_text()}"
            raise EpisodeAbort(message) from exc
        return self

    def now_text(self) -> str:
        return format_time(self.current_time)


class OutputKind(enum.Enum):
    FREE_TEXT = "free"
    CHOICE = "choice"
    FLOAT = "float"


@dataclass(frozen=True)
class ActionSpec:
    """A call to action plus the shape the answer must take.

    ``call_to_action`` may contain the placeholders ``{name}`` and ``{time}``;
    they are substituted verbatim at render time and no other brace handling
    is applied.  CHOICE specs carry at least two distinct options; the other
    kinds carry none.
    """

    call_to_action: str
    output_kind: OutputKind = OutputKind.FREE_TEXT
    options: tuple[str, ...] = ()

    def __post_init__(self):
        if self.output_kind is OutputKind.CHOICE:
            if len(self.options) < 2:
                raise ValueError("a choice needs at least two options")
            if len(set(self.options)) != len(self.options):
                raise ValueError("choice options must be distinct")
        elif self.options:
            raise ValueError(f"{self.output_kind.value} takes no options")

    def render(self, name: str, time: str) -> str:
        return self.call_to_action.replace("{name}", name).replace("{time}", time)

    def to_dict(self) -> dict:
        data = {"call_to_action": self.call_to_action, "output_kind": self.output_kind.value}
        if self.options:
            data["options"] = list(self.options)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ActionSpec":
        return cls(
            call_to_action=data["call_to_action"],
            output_kind=OutputKind(data.get("output_kind", "free")),
            options=tuple(data.get("options", ())),
        )


DEFAULT_CALL_TO_ACTION = "What would {name} do next? It is {time}."


@dataclass(frozen=True)
class AgentAction:
    """One resolved act attempt: who tried what, in response to which spec."""

    actor: str
    text: str
    spec: ActionSpec
    timestamp: datetime

    def __post_init__(self):
        if not self.text:
            raise ValueError("action text must be non-empty")

    def to_dict(self) -> dict:
        return {
            "actor": self.actor,
            "text": self.text,
            "spec": self.spec.to_dict(),
            "time": format_time(self.timestamp),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AgentAction":
        return cls(
            actor=data["actor"],
            text=data["text"],
            spec=ActionSpec.from_dict(data["spec"]),
            timestamp=parse_time(data["time"]),
        )


@dataclass(frozen=True)
class EventStatement:
    """What actually happened, as decided by the game master."""

    text: str
    cause: AgentAction
    timestamp: datetime

    def __post_init__(self):
        if not self.text:
            raise ValueError("event text must be non-empty")
        if self.timestamp < self.cause.timestamp:
            raise ValueError("an event cannot precede its cause")

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "cause": self.cause.to_dict(),
            "time": format_time(self.timestamp),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventStatement":
        return cls(
            text=data["text"],
            cause=AgentAction.from_dict(data["cause"]),
            timestamp=parse_time(data["time"]),
        )


@dataclass(frozen=True)
class Observation:
    """A piece of text delivered to one named agent."""

    recipient: str
    text: str
    timestamp: datetime

    def __post_init__(self):
        if not self.text:
            raise ValueError("observation text must be non-empty")

    def to_dict(self) -> dict:
        return {
            "recipient": self.recipient,
            "text": self.text,
            "time": format_time(self.timestamp),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Observation":
        return cls(
            recipient=data["recipient"],
            text=data["text"],
            timestamp=parse_time(data["time"]),
        )


@dataclass(frozen=True)
class ModelCall:
    """One model invocation: who asked, the full prompt, the raw response."""

    caller: str
    prompt: str
    response: str
    backend: str

    def to_dict(self) -> dict:
        return {
            "caller": self.caller,
            "prompt": self.prompt,
            "response": self.response,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelCall":
        return cls(
            caller=data["caller"],
            prompt=data["prompt"],
            response=data["response"],
            backend=data["backend"],
        )


@dataclass
class TraceRecord:
    """Everything observable about one acting turn.

    ``kind`` is "turn" for ordinary acting turns and "questionnaire" for
    off-clock survey answers.  ``notes`` carries audit annotations (scene
    markers, extraction warnings) that are not observations or events.
    """

    kind: str
    step: int
    turn: int
    timestamp: datetime
    actor: str
    agent_states: dict[str, str] = field(default_factory=dict)
    gm_states: dict[str, str] = field(default_factory=dict)
    prompts: list[str] = field(default_factory=list)
    action: AgentAction | None = None
    event: str = ""
    observations: list[Observation] = field(default_factory=list)
    model_calls: list[ModelCall] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "step": self.step,
            "turn": self.turn,
            "time": format_time(self.timestamp),
            "actor": self.actor,
            "agent_states": dict(self.agent_states),
            "gm_states": dict(self.gm_states),
            "prompts": list(self.prompts),
            "action": self.action.to_dict() if self.action else None,
            "event": self.event,
            "observations": [o.to_dict() for o in self.observations],
            "model_calls": [c.to_dict() for c in self.model_calls],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceRecord":
        return cls(
            kind=data["kind"],
            step=data["step"],
            turn=data["turn"],
            timestamp=parse_time(data["time"]),
            actor=data["actor"],
            agent_states=dict(data["agent_states"]),
            gm_states=dict(data["gm_states"]),
            prompts=list(data["prompts"]),
            action=AgentAction.from_dict(data["action"]) if data.get("action") else None,
            event=data.get("event", ""),
            observations=[Observation.from_dict(o) for o in data["observations"]],
            model_calls=[ModelCall.from_dict(c) for c in data["model_calls"]],
            notes=list(data.get("notes", ())),
        )

    def to_json_line(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json_line(cls, line: str) -> "TraceRecord":
        return cls.from_dict(json.loads(line))


def canonical_json(obj) -> str:
    """Stable JSON encoding: sorted keys, compact separators, raw UTF-8."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def parse_choice(raw: str, options: tuple[str, ...] | list[str]) -> tuple[int, str]:
    """Match free text against a fixed option list.

    Case-insensitive exact match wins outright; otherwise the answer must be
    a prefix of exactly one option.  Anything else raises NoMatchingOption.
    """
    cleaned = raw.strip().casefold()
    for i, option in enumerate(options):
        if cleaned == option.strip().casefold():
            return i, option
    prefix_hits = [
        (i, option)
        for i, option in enumerate(options)
        if cleaned and option.strip().casefold().startswith(cleaned)
    ]
    if len(prefix_hits) == 1:
        return prefix_hits[0]
    raise NoMatchingOption(f"answer {raw!r} does not pick one of {list(options)}")


def parse_float_token(raw: str) -> Decimal:
    """Pull the first decimal-number token out of free text."""
    match = _NUMBER_RE.search(raw)
    if match is None:
        raise NotANumber(f"no number found in {raw!r}")
    try:
        return Decimal(match.group(0))
    except InvalidOperation as exc:  # pragma: no cover - regex precludes this
        raise NotANumber(f"unparseable number token {match.group(0)!r}") from exc

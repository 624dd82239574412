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
from functools import lru_cache

from .errors import EpisodeAbort, NoMatchingOption, NotANumber

TIME_FORMAT = "%Y-%m-%dT%H:%M"
# The strings format_time writes, with every field in its range;
# fromisoformat and strptime read each of them the same way.
_TIME_SHAPE = re.compile(
    r"\d{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12]\d|3[01])T(?:[01]\d|2[0-3]):[0-5]\d", re.ASCII
)

# First token that reads as a decimal number, sign and exponent allowed.
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


# Distinct naive datetimes whose text, and distinct texts whose datetime,
# stay memoized.  An episode formats and parses the same few minutes over
# and over: one crowd episode (seed 1, 240 turns) formats 72 distinct
# minutes 7,080 times, and its replay parses 70 distinct strings 6,304
# times.
TIME_CACHE_ENTRIES = 1024


def format_time(moment: datetime) -> str:
    """``moment`` as ``YYYY-MM-DDTHH:MM``, the year zero-padded to four digits.

    This is ``moment.strftime(TIME_FORMAT)`` for the years 1000 to 9999;
    below 1000 some C libraries write fewer year digits, which
    ``parse_time`` would not read back, so every year is padded here.  The
    text of a naive datetime is memoized (TIME_CACHE_ENTRIES entries).  An
    aware one is formatted afresh: two equal aware datetimes in different
    zones have different wall times, so they must not share an entry.
    """
    if moment.tzinfo is None:
        return _format_naive(moment)
    return _format(moment)


def _format(m: datetime) -> str:
    return f"{m.year:04d}-{m.month:02d}-{m.day:02d}T{m.hour:02d}:{m.minute:02d}"


_format_naive = lru_cache(maxsize=TIME_CACHE_ENTRIES)(_format)


@lru_cache(maxsize=TIME_CACHE_ENTRIES)
def parse_time(text: str) -> datetime:
    """Parse a timestamp exactly as ``strptime(text, TIME_FORMAT)`` would.

    What ``format_time`` writes takes the fast ``fromisoformat`` path; any
    other string, valid or not, goes to strptime, which returns the same
    value or raises its own error.  Results are memoized by text
    (TIME_CACHE_ENTRIES entries); datetimes are immutable, so callers may
    share one.
    """
    if _TIME_SHAPE.fullmatch(text):
        try:
            return datetime.fromisoformat(text)
        except ValueError:  # a day past the end of its month, or year 0
            pass
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
    is applied.  CHOICE specs carry at least two options, none blank and no
    two alike once stripped and casefolded; the other kinds carry none.
    """

    call_to_action: str
    output_kind: OutputKind = OutputKind.FREE_TEXT
    options: tuple[str, ...] = ()

    def __post_init__(self):
        if self.output_kind is OutputKind.CHOICE:
            if len(self.options) < 2:
                raise ValueError("a choice needs at least two options")
            # ``parse_choice`` matches on the stripped, casefolded option.
            keys = [option.strip().casefold() for option in self.options]
            if not all(keys):
                raise ValueError("choice options must not be blank")
            if len(set(keys)) != len(keys):
                raise ValueError("choice options must be distinct, ignoring case and surrounding spaces")
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


def _typed(value, kind: type, name: str):
    """``value``, which a trace line must give as a ``kind`` (never a bool)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _text_map(values, name: str) -> dict[str, str]:
    """``values``, which a trace line must give as an object of strings."""
    if not isinstance(values, dict) or not all(isinstance(v, str) for v in values.values()):
        raise ValueError(f"{name} must map names to strings, got {values!r}")
    return values


def _texts(values, name: str) -> list[str]:
    """``values``, which a trace line must give as a list of strings."""
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"{name} must be a list of strings, got {values!r}")
    return values


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
            actor=_typed(data["actor"], str, "action actor"),
            text=_typed(data["text"], str, "action text"),
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


@dataclass(frozen=True)
class Observation:
    """A piece of text delivered to one named agent."""

    recipient: str
    text: str
    timestamp: datetime

    def __post_init__(self):
        if not self.text:
            raise ValueError("observation text must be non-empty")


def _observation_groups(observations: list[Observation]) -> list[dict]:
    """``observations`` as runs of equal text and time, each written once
    with the recipients of the run in delivery order.

    Two times are one when they are equal in the same zone: equal aware
    datetimes in two zones have different wall times, so different texts.
    """
    groups: list[dict] = []
    recipients: list[str] = []
    text = moment = None
    for observation in observations:
        when = observation.timestamp
        if observation.text != text or when != moment or when.tzinfo is not moment.tzinfo:
            text, moment = observation.text, when
            recipients = []
            groups.append({"recipients": recipients, "text": text, "time": format_time(when)})
        recipients.append(observation.recipient)
    return groups


def _observations(groups) -> list[Observation]:
    """The observations that ``_observation_groups`` wrote as ``groups``, in order."""
    observations = []
    for group in groups:
        recipients = group["recipients"]
        if not recipients or not isinstance(recipients, list):
            raise ValueError(f"observation recipients must be a non-empty list, got {recipients!r}")
        text = _typed(group["text"], str, "observation text")
        moment = parse_time(group["time"])
        observations.extend(
            Observation(_typed(r, str, "observation recipient"), text, moment) for r in recipients
        )
    return observations


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
            caller=_typed(data["caller"], str, "caller"),
            prompt=_typed(data["prompt"], str, "prompt"),
            response=_typed(data["response"], str, "response"),
            backend=_typed(data["backend"], str, "backend"),
        )


@dataclass
class TraceRecord:
    """Everything observable about one acting turn.

    ``kind`` is "turn" for ordinary acting turns and "questionnaire" for
    off-clock survey answers.  ``notes`` carries audit annotations (scene
    markers, extraction warnings) that are not observations or events.
    The act prompt is the prompt of the record's ``agent:<actor>:act`` call.

    On a trace line each run of observations with equal text and time is
    one group, ``{"recipients": [...], "text": ..., "time": ...}``: a crowd
    event that reaches 24 agents is written once, not 24 times.  Decoding
    expands the groups in order, so ``observations`` reads back element for
    element as the game master emitted it.
    """

    kind: str
    step: int
    turn: int
    timestamp: datetime
    actor: str
    agent_states: dict[str, str] = field(default_factory=dict)
    gm_states: dict[str, str] = field(default_factory=dict)
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
            "action": self.action.to_dict() if self.action else None,
            "event": self.event,
            "observations": _observation_groups(self.observations),
            "model_calls": [c.to_dict() for c in self.model_calls],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceRecord":
        return cls(
            kind=_typed(data["kind"], str, "kind"),
            step=_typed(data["step"], int, "step"),
            turn=_typed(data["turn"], int, "turn"),
            timestamp=parse_time(data["time"]),
            actor=_typed(data["actor"], str, "actor"),
            agent_states=_text_map(data["agent_states"], "agent_states"),
            gm_states=_text_map(data["gm_states"], "gm_states"),
            action=AgentAction.from_dict(data["action"]) if data.get("action") else None,
            event=_typed(data.get("event", ""), str, "event"),
            observations=_observations(data["observations"]),
            model_calls=[ModelCall.from_dict(c) for c in data["model_calls"]],
            notes=_texts(data.get("notes", []), "notes"),
        )

    def to_json_line(self) -> str:
        return canonical_json(self.to_dict())


# One encoder for every call: ``encode`` keeps no state between calls.
_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Stable JSON encoding: sorted keys, compact separators, raw UTF-8."""
    return _CANONICAL.encode(obj)


# The characters canonical_json escapes: U+0000-U+001F, '"' and '\'.  It
# writes every other code point as itself.
_ESCAPED = (*map(chr, range(0x20)), '"', "\\")


def canonical_config_json(obj) -> str:
    """``canonical_json(obj)`` for a JSON value that holds long string lists.

    A config's ``initial_memories`` can run to tens of thousands of texts,
    and the C encoder escapes them one at a time, which takes 10 ms for
    the 2.2 MB text of four 10k-memory banks.  This walks dicts (keys sorted)
    and lists in Python and joins every part once, at the end.  A list of
    strings is joined whole and searched once for each character JSON
    escapes; when none occurs it is written as ``'["' + '","'.join(texts)
    + '"]'``, which is what the C encoder writes for it, and otherwise that
    list alone goes to ``canonical_json``.  Every other leaf, and any dict
    with a key that is not a ``str``, goes to ``canonical_json``.  On small
    values the walk costs more than the C encoder (a 24-agent config of
    short texts: 0.25 against 0.08 ms), so trace records keep that one.
    """
    parts: list[str] = []
    _encode_into(obj, parts)
    return "".join(parts)


def _encode_into(obj, parts: list[str]) -> None:
    if type(obj) is dict and all(type(key) is str for key in obj):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(",")
            parts += (canonical_json(key), ":")
            _encode_into(obj[key], parts)
        parts.append("}")
    elif type(obj) is list and obj:
        try:
            joined = "".join(obj)
        except TypeError:  # an item that is not a str
            parts.append("[")
            for i, item in enumerate(obj):
                if i:
                    parts.append(",")
                _encode_into(item, parts)
            parts.append("]")
            return
        if any(char in joined for char in _ESCAPED):
            parts.append(canonical_json(obj))
        else:
            parts += ('["', '","'.join(obj), '"]')
    else:
        parts.append(canonical_json(obj))


# A surrogate code point, which UTF-8 cannot encode; JSON's "\ud800" escape
# decodes to one.  A valid escaped pair decodes to one other code point.
_SURROGATE = re.compile("[\ud800-\udfff]")


def writable(text: str) -> bool:
    """Whether ``text`` can be written as UTF-8, so into a trace."""
    return text.isascii() or _SURROGATE.search(text) is None


def replace_surrogates(text: str) -> str:
    """``text`` with each surrogate code point replaced by U+FFFD."""
    return text if text.isascii() else _SURROGATE.sub("\ufffd", text)


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
    except InvalidOperation as exc:
        raise NotANumber(f"unparseable number token {match.group(0)!r}") from exc

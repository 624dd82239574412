"""Phones, apps, notifications, and nested phone scenes.

Free-text actions get grounded against app capabilities in two stages:
first one choice call picks an "app.action" from the installed catalog,
then one model call per parameter supplies a typed value.  The
invocation returns result text for the owner and may queue notifications,
which land as observations at the recipient's next pre-act phase, exactly
once.  A game with phones has one ``PhoneUniverse``, owned by its game
master as ``gm.phones``: each owner's phone, a list of apps; the texts
pending for each recipient; and the scene settings.  An app installed on
two phones is one object, so its state is shared and survives scene
boundaries.  ``SceneTrigger`` asks after each event whether it involves a
phone and plays the actor's scene; ``run_phone_scene`` and
``deliver_notifications`` read the universe on the game master.

A phone scene is a nested game with one player, the phone's owner, on a
clock of its own.  Nothing of it is merged back into the game master:
scene markers and notes bracket it in the parent's trace record, and the
owner's own memory keeps what they did and saw on the phone.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Callable

from .errors import ConfigError, NoMatchingOption
from .game_master import GameMaster, GMComponent, spawn_nested_game
from .kernel import (
    ActionSpec,
    EventStatement,
    GameClock,
    Observation,
    format_time,
    parse_time,
)
from .model import GenerativeModel, sample_repaired

PARAM_KINDS = ("text", "datetime")

_ISO_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}")
_RELATIVE_RE = re.compile(r"\b(today|tomorrow)\s+at\s+(\d{1,2}):(\d{2})", re.IGNORECASE)


@dataclass(frozen=True)
class ParamDescriptor:
    name: str
    kind: str
    description: str = ""

    def __post_init__(self):
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")


@dataclass(frozen=True)
class AppActionDescriptor:
    name: str
    description: str
    params: tuple[ParamDescriptor, ...] = ()


def deliver_notifications(gm: GameMaster, player: str) -> int:
    """Hand every notification queued for one player in ``gm.phones`` over
    as observations; returns how many."""
    texts = gm.phones.pending.pop(player, [])
    for text in texts:
        gm.emit_observation(player, text)
    return len(texts)


class PhoneApp:
    """Base class: ``name``, ``description`` and ``actions`` describe the app
    once; each declared action is handled by a method
    ``do_<action>(owner, universe, **params)``."""

    name = ""
    description = ""
    actions: tuple[AppActionDescriptor, ...] = ()

    def invoke(self, action: str, owner: str, universe: PhoneUniverse, args: dict) -> str:
        handler = getattr(self, f"do_{action}", None)
        if handler is None:
            raise ConfigError(f"app {self.name!r} has no action {action!r}")
        return handler(owner, universe, **args)


@dataclass(frozen=True)
class Meeting:
    when: datetime
    participants: tuple[str, ...]
    title: str

    def __post_init__(self):
        if not self.participants:
            raise ValueError("a meeting needs at least one participant")


class CalendarApp(PhoneApp):
    """Keeps track of meetings; can add, remove, and read them back.

    ``meetings`` is shared by every phone the app is installed on and
    lives as long as the universe does.
    """

    description = "Keeps track of meetings."
    actions = (
        AppActionDescriptor(
            name="add_meeting",
            description="Schedule a meeting with another person.",
            params=(
                ParamDescriptor("title", "text", "Short name for the meeting."),
                ParamDescriptor("participant", "text", "Who else attends."),
                ParamDescriptor("when", "datetime", "When the meeting starts."),
            ),
        ),
        AppActionDescriptor(
            name="check_calendar",
            description="Read back the scheduled meetings.",
        ),
        AppActionDescriptor(
            name="remove_meeting",
            description="Delete meetings by exact title.",
            params=(ParamDescriptor("title", "text", "Title of the meeting to delete."),),
        ),
    )

    def __init__(self, name: str = "calendar"):
        self.name = name
        self.meetings: list[Meeting] = []

    def do_add_meeting(
        self, owner: str, universe: PhoneUniverse, title: str, participant: str, when: datetime
    ) -> str:
        meeting = Meeting(when=when, participants=tuple(sorted({owner, participant})), title=title)
        self.meetings.append(meeting)
        when_text = format_time(meeting.when)
        if participant != owner:
            universe.notify(participant, f"New meeting '{title}' with {owner} at {when_text}.")
        return f"Added meeting '{title}' with {participant} at {when_text}."

    def do_check_calendar(self, owner: str, universe: PhoneUniverse) -> str:
        if not self.meetings:
            return "The calendar is empty."
        lines = [
            f"{format_time(m.when)}: '{m.title}' with {', '.join(m.participants)}"
            for m in self.meetings
        ]
        return "Meetings: " + "; ".join(lines)

    def do_remove_meeting(self, owner: str, universe: PhoneUniverse, title: str) -> str:
        kept = [m for m in self.meetings if m.title != title]
        removed = len(self.meetings) - len(kept)
        self.meetings = kept
        if removed == 0:
            return f"No meeting titled '{title}' found."
        return f"Removed {removed} meeting(s) titled '{title}'."


def render_app_catalog(owner: str, apps: list[PhoneApp]) -> str:
    """Deterministic text catalog of everything the owner's phone can do."""
    if not apps:
        return f"{owner}'s phone has no apps installed."
    lines = [f"Apps installed on {owner}'s phone:"]
    for app in apps:
        lines.append(f"{app.name}: {app.description}")
        for action in app.actions:
            params = ", ".join(f"{p.name}: {p.kind}" for p in action.params)
            lines.append(f"  {action.name}({params}) -- {action.description}")
    return "\n".join(lines)


def parse_param_value(raw: str, kind: str, now: datetime):
    """Parse one typed parameter value out of free text.

    Raises ValueError when nothing usable is found; callers retry with a
    repair instruction and eventually skip the invocation.
    """
    raw = raw.strip()
    if kind == "text":
        if not raw:
            raise ValueError("empty text value")
        return raw
    # The one other kind is "datetime": ParamDescriptor admits no third.
    iso = _ISO_RE.search(raw)
    if iso is not None:
        return parse_time(iso.group(0))
    relative = _RELATIVE_RE.search(raw)
    if relative is not None:
        word, hh, mm = relative.groups()
        hour, minute = int(hh), int(mm)
        if hour > 23 or minute > 59:
            raise ValueError(f"impossible time of day in {raw!r}")
        day = now.date()
        if word.lower() == "tomorrow":
            try:
                day = day + timedelta(days=1)
            except OverflowError as exc:
                raise ValueError(f"no day after {day.isoformat()}") from exc
        return datetime(day.year, day.month, day.day, hour, minute)
    raise ValueError(f"no datetime in {raw!r}")


class PhoneUniverse:
    """A phone game's phones, their pending notifications and its scene settings.

    ``phones`` maps each owner to the apps on their phone, in install order;
    an app on two phones is one object.  ``pending`` maps each recipient to
    the texts queued for their next pre-act phase, in push order.
    """

    def __init__(
        self,
        phones: dict[str, list[PhoneApp]] | None = None,
        minutes: int = 30,
        max_actions: int = 5,
        child_step_minutes: int = 1,
    ):
        self.phones = phones or {}
        self.pending: dict[str, list[str]] = {}
        self.minutes = minutes
        self.max_actions = max_actions
        self.child_step_minutes = child_step_minutes

    def notify(self, recipient: str, text: str) -> None:
        self.pending.setdefault(recipient, []).append(text)


def translate_action(
    universe: PhoneUniverse,
    owner: str,
    text: str,
    model: GenerativeModel,
    now: datetime,
    note: Callable[[str], None] | None = None,
) -> str | None:
    """Ground one free-text phone action into a typed app call and make it.

    Stage one is a single choice over every "app.action" on the owner's
    phone; stage two asks the model for each parameter in declaration
    order.  Returns the app's result text, or None when no app fits or a
    parameter never parses; the reason goes through ``note``.
    """
    log = note or (lambda _: None)
    apps = universe.phones.get(owner, [])
    catalog = [(f"{app.name}.{action.name}", app, action) for app in apps for action in app.actions]
    if not catalog:
        log("no suitable app (phone has no apps)")
        return None
    options = [label for label, _, _ in catalog]
    prompt = (
        f"{render_app_catalog(owner, apps)}\n"
        f"{owner} wants to: {text}\n"
        "Which app action does this correspond to?"
    )
    try:
        index, _ = model.sample_choice(prompt, options, caller="phone:translate:choose")
    except NoMatchingOption:
        log("no suitable app")
        return None
    label, app, action = catalog[index]
    args: dict = {}
    for param in action.params:
        ask = (
            f"{owner} wants to: {text}\n"
            f"The chosen app action is {label}.\n"
            f"The current time is {format_time(now)}.\n"
            f"Provide the value for parameter '{param.name}' ({param.kind}). {param.description}"
        )
        parse = functools.partial(parse_param_value, kind=param.kind, now=now)
        repair = f"Answer with just the {param.kind} value."
        caller = f"phone:translate:param:{param.name}"
        try:
            args[param.name] = sample_repaired(model, ask, parse, ValueError, repair, caller=caller)
        except ValueError:
            log(f"parameter {param.name!r} never parsed; invocation skipped")
            return None
    return app.invoke(action.name, owner, universe, args)


DETECT_PHONE_QUESTION = (
    "Does this event involve someone using a phone, an app, or another digital device?"
)


def run_phone_scene(parent_gm: GameMaster, owner_name: str, trigger: str = "") -> None:
    """Play one owner's nested phone game, on its own clock, until done or capped.

    The phone is the owner's in ``parent_gm.phones``.  Each step asks
    whether the owner has finished, then has the owner act on the phone
    and grounds the act through ``translate_action``.  The owner observes
    each result; a step that fits no app ends the scene.  The scene's notes
    go to the parent's open record.
    """
    owner = parent_gm.player(owner_name)
    universe = parent_gm.phones
    if universe is None or owner_name not in universe.phones:
        raise ConfigError(f"{owner_name!r} has no phone")
    clock = GameClock(parent_gm.clock.current_time, step_minutes=universe.child_step_minutes)
    model = parent_gm.model

    def note(text: str) -> None:
        parent_gm.audit_note(f"phone scene: {text}")

    def tell_owner(text: str) -> None:
        owner.observe(Observation(recipient=owner.name, text=text, timestamp=clock.current_time))

    def play() -> None:
        log = [f"Trigger: {trigger}"] if trigger else []
        for _ in range(universe.max_actions):
            so_far = "\n".join(log) if log else "(nothing yet)"
            _, done = model.sample_choice(
                f"{owner.name} is using the phone. Activity so far:\n{so_far}\n"
                f"Has {owner.name} finished using the phone?",
                ("yes", "no"),
                caller="phone:scene:done",
            )
            if done == "yes":
                return
            spec = ActionSpec("What does {name} do on the phone right now? It is {time}.")
            action = owner.act(spec, clock.current_time)
            log.append(f"{owner.name}: {action.text}")
            result = translate_action(
                universe, owner.name, action.text, model, clock.current_time, note=note
            )
            if result is None:
                tell_owner("The phone has no suitable app for that.")
                return
            log.append(f"Phone: {result}")
            tell_owner(result)
            clock.advance()
        note("step cap reached")

    spawn_nested_game(parent_gm, play, universe.minutes, label=f"phone: {owner_name}")


class SceneTrigger(GMComponent):
    """Watches every resolved event and spins up phone scenes when one fits.

    Whether the event involves a phone is its post-event yes/no ask; its
    answer hook makes any repair re-asks, the notes and the scene, played on
    the actor's phone in ``gm.phones``.  An answer that stays unusable
    counts as no.  An actor without a phone, as every actor in a game
    without phones is, gets only a note.
    """

    def __init__(self, name: str = "phone scene trigger"):
        super().__init__(name)

    def query_after_event(self, gm: GameMaster, event: EventStatement) -> tuple[str, str]:
        return f"Event: {event.text}\n{DETECT_PHONE_QUESTION}", "phone:detect"

    def answer_after_event(self, gm: GameMaster, event: EventStatement, answer: str) -> None:
        prompt, caller = self.query_after_event(gm, event)
        try:
            _, answer = gm.model.sample_choice(prompt, ("yes", "no"), caller=caller, first=answer)
        except NoMatchingOption:
            gm.audit_note("phone detection answer unusable; assuming no")
            return
        if answer != "yes":
            return
        actor = event.cause.actor
        if gm.phones is None or actor not in gm.phones.phones:
            gm.audit_note(f"{actor} has no phone; scene skipped")
            return
        run_phone_scene(gm, actor, trigger=event.text)

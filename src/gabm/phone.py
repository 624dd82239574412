"""Phones, apps, notifications, and nested phone scenes.

Free-text actions get grounded against app capabilities in two stages:
first one choice call picks an "app.action" from the installed catalog,
then one model call per parameter supplies a typed value.  The
invocation returns result text for the owner and may queue notifications,
which land as observations at the recipient's next pre-act phase, exactly
once.  Apps are singletons shared by every phone that installs them, so
app state survives scene boundaries.
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable

from .agent import GenerativeAgent
from .errors import ConfigError, NoMatchingOption
from .game_master import Effect, GameMaster, GMComponent, NestedScene, spawn_nested_game
from .kernel import (
    ActionSpec,
    EventStatement,
    GameClock,
    Observation,
    format_time,
    parse_float_token,
)
from .model import GenerativeModel

PARAM_KINDS = ("text", "integer", "decimal", "datetime")
PARAM_RETRY_BUDGET = 3

_ISO_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}")
_RELATIVE_RE = re.compile(r"\b(today|tomorrow)\s+at\s+(\d{1,2}):(\d{2})", re.IGNORECASE)
_INT_RE = re.compile(r"[-+]?\d+")


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


@dataclass(frozen=True)
class AppDescriptor:
    name: str
    description: str
    actions: tuple[AppActionDescriptor, ...]


class NotificationHub:
    """Queued texts awaiting each recipient's next pre-act phase."""

    def __init__(self):
        self._lock = threading.Lock()
        self._queue: list[tuple[str, str]] = []

    def push(self, recipient: str, text: str) -> None:
        with self._lock:
            self._queue.append((recipient, text))

    def pop_for(self, recipient: str) -> list[str]:
        with self._lock:
            mine = [text for who, text in self._queue if who == recipient]
            self._queue = [(who, text) for who, text in self._queue if who != recipient]
            return mine


def deliver_notifications(hub: NotificationHub, gm: GameMaster, player: str) -> int:
    """Hand every queued notification for one player over as observations."""
    texts = hub.pop_for(player)
    for text in texts:
        gm.emit_observation("notifications", player, text)
    return len(texts)


@dataclass
class AppContext:
    """What an app handler may touch while executing one invocation."""

    owner: str
    now: datetime
    hub: NotificationHub


class PhoneApp:
    """Base class: a descriptor plus one handler per declared action."""

    def descriptor(self) -> AppDescriptor:
        raise NotImplementedError

    def invoke(self, action: str, ctx: AppContext, args: dict) -> str:
        handler = getattr(self, f"do_{action}", None)
        if handler is None:
            raise ConfigError(f"app {self.descriptor().name!r} has no action {action!r}")
        return handler(ctx, **args)


@dataclass(frozen=True)
class Meeting:
    when: datetime
    participants: tuple[str, ...]
    title: str

    def __post_init__(self):
        if not self.participants:
            raise ValueError("a meeting needs at least one participant")


class CalendarStore:
    """Shared meeting list; lives as long as the universe does."""

    def __init__(self):
        self.meetings: list[Meeting] = []

    def add(self, when: datetime, participants: list[str], title: str) -> Meeting:
        meeting = Meeting(when=when, participants=tuple(sorted(set(participants))), title=title)
        self.meetings.append(meeting)
        return meeting

    def remove_by_title(self, title: str) -> int:
        before = len(self.meetings)
        self.meetings = [m for m in self.meetings if m.title != title]
        return before - len(self.meetings)


class CalendarApp(PhoneApp):
    """Keeps track of meetings; can add, remove, and read them back."""

    def __init__(self, name: str = "calendar"):
        self.name = name
        self.store = CalendarStore()

    def descriptor(self) -> AppDescriptor:
        return AppDescriptor(
            name=self.name,
            description="Keeps track of meetings.",
            actions=(
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
            ),
        )

    def do_add_meeting(self, ctx: AppContext, title: str, participant: str, when: datetime) -> str:
        meeting = self.store.add(when=when, participants=[ctx.owner, participant], title=title)
        when_text = format_time(meeting.when)
        if participant != ctx.owner:
            ctx.hub.push(
                participant,
                f"New meeting '{title}' with {ctx.owner} at {when_text}.",
            )
        return f"Added meeting '{title}' with {participant} at {when_text}."

    def do_check_calendar(self, ctx: AppContext) -> str:
        if not self.store.meetings:
            return "The calendar is empty."
        lines = [
            f"{format_time(m.when)}: '{m.title}' with {', '.join(m.participants)}"
            for m in self.store.meetings
        ]
        return "Meetings: " + "; ".join(lines)

    def do_remove_meeting(self, ctx: AppContext, title: str) -> str:
        removed = self.store.remove_by_title(title)
        if removed == 0:
            return f"No meeting titled '{title}' found."
        return f"Removed {removed} meeting(s) titled '{title}'."


@dataclass
class Phone:
    """One per player; apps are shared singletons, listed in install order."""

    owner: str
    apps: list[PhoneApp] = field(default_factory=list)


def render_app_catalog(phone: Phone) -> str:
    """Deterministic text catalog of everything the phone can do."""
    if not phone.apps:
        return f"{phone.owner}'s phone has no apps installed."
    lines = [f"Apps installed on {phone.owner}'s phone:"]
    for app in phone.apps:
        desc = app.descriptor()
        lines.append(f"{desc.name}: {desc.description}")
        for action in desc.actions:
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
    if kind == "integer":
        match = _INT_RE.search(raw)
        if match is None:
            raise ValueError(f"no integer in {raw!r}")
        return int(match.group(0))
    if kind == "decimal":
        try:
            return parse_float_token(raw)
        except Exception as exc:
            raise ValueError(str(exc)) from exc
    if kind == "datetime":
        iso = _ISO_RE.search(raw)
        if iso is not None:
            return datetime.strptime(iso.group(0), "%Y-%m-%dT%H:%M")
        relative = _RELATIVE_RE.search(raw)
        if relative is not None:
            word, hh, mm = relative.groups()
            hour, minute = int(hh), int(mm)
            if hour > 23 or minute > 59:
                raise ValueError(f"impossible time of day in {raw!r}")
            day = now.date()
            if word.lower() == "tomorrow":
                day = day + timedelta(days=1)
            return datetime(day.year, day.month, day.day, hour, minute)
        raise ValueError(f"no datetime in {raw!r}")
    raise ValueError(f"unknown parameter kind {kind!r}")


@dataclass(frozen=True)
class AppInvocation:
    app: str
    action: str
    args: dict
    result: str


class PhoneUniverse:
    """Registry of apps and phones, plus the shared notification hub."""

    def __init__(
        self,
        apps: list[PhoneApp] | None = None,
        scene_minutes: int = 30,
        max_actions: int = 5,
        child_step_minutes: int = 1,
    ):
        self.apps: dict[str, PhoneApp] = {}
        for app in apps or []:
            self.register_app(app)
        self.phones: dict[str, Phone] = {}
        self.hub = NotificationHub()
        self.scene_minutes = scene_minutes
        self.max_actions = max_actions
        self.child_step_minutes = child_step_minutes

    def register_app(self, app: PhoneApp) -> None:
        name = app.descriptor().name
        if name in self.apps:
            raise ConfigError(f"duplicate app name {name!r}")
        self.apps[name] = app

    def give_phone(self, owner: str, app_names: list[str]) -> Phone:
        if owner in self.phones:
            raise ConfigError(f"{owner!r} already has a phone")
        apps = []
        for name in app_names:
            if name not in self.apps:
                raise ConfigError(f"unknown app {name!r}")
            apps.append(self.apps[name])
        phone = Phone(owner=owner, apps=apps)
        self.phones[owner] = phone
        return phone

    def phone_for(self, owner: str) -> Phone | None:
        return self.phones.get(owner)

    def attach(self, gm: GameMaster) -> None:
        gm.notification_hub = self.hub


def translate_action(
    universe: PhoneUniverse,
    phone: Phone,
    text: str,
    model: GenerativeModel,
    now: datetime,
    note: Callable[[str], None] | None = None,
) -> AppInvocation | None:
    """Ground one free-text phone action into a typed app invocation.

    Stage one is a single choice over every installed "app.action"; stage
    two asks the model for each parameter in declaration order.
    Returns None when no app fits or a parameter never parses; the reason
    goes through ``note``.
    """
    log = note or (lambda _: None)
    catalog: list[tuple[str, PhoneApp, AppActionDescriptor]] = []
    for app in phone.apps:
        desc = app.descriptor()
        for action in desc.actions:
            catalog.append((f"{desc.name}.{action.name}", app, action))
    if not catalog:
        log("no suitable app (phone has no apps)")
        return None
    options = [label for label, _, _ in catalog]
    prompt = (
        f"{render_app_catalog(phone)}\n"
        f"{phone.owner} wants to: {text}\n"
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
            f"{phone.owner} wants to: {text}\n"
            f"The chosen app action is {label}.\n"
            f"The current time is {format_time(now)}.\n"
            f"Provide the value for parameter '{param.name}' ({param.kind}). {param.description}"
        )
        value = None
        for attempt in range(1 + PARAM_RETRY_BUDGET):
            if attempt > 0:
                ask = ask + f"\nAnswer with just the {param.kind} value."
            raw = model.sample_text(ask, caller=f"phone:translate:param:{param.name}")
            try:
                value = parse_param_value(raw, param.kind, now)
                break
            except ValueError:
                continue
        if value is None:
            log(f"parameter {param.name!r} never parsed; invocation skipped")
            return None
        args[param.name] = value
    ctx = AppContext(owner=phone.owner, now=now, hub=universe.hub)
    result = app.invoke(action.name, ctx, args)
    return AppInvocation(app=app.descriptor().name, action=action.name, args=args, result=result)


DETECT_PHONE_QUESTION = (
    "Does this event involve someone using a phone, an app, or another digital device?"
)


def detect_phone_event(event_text: str, model: GenerativeModel, note: Callable[[str], None] | None = None) -> bool:
    """One yes/no model call; anything unusable counts as no."""
    if not event_text.strip():
        return False
    try:
        _, answer = model.sample_choice(
            f"Event: {event_text}\n{DETECT_PHONE_QUESTION}",
            ("yes", "no"),
            caller="phone:detect",
        )
    except NoMatchingOption:
        if note is not None:
            note("phone detection answer unusable; assuming no")
        return False
    return answer == "yes"


class PhoneScene(NestedScene):
    """Single-owner nested game: act on the phone until done or capped."""

    def __init__(
        self,
        owner: GenerativeAgent,
        universe: PhoneUniverse,
        clock: GameClock,
        model: GenerativeModel,
        parent_gm: GameMaster | None = None,
        trigger: str = "",
    ):
        phone = universe.phone_for(owner.name)
        if phone is None:
            raise ConfigError(f"{owner.name!r} has no phone")
        self.owner = owner
        self.phone = phone
        self.universe = universe
        self.clock = clock
        self.model = model
        self.parent_gm = parent_gm
        self.trigger = trigger

    def _note(self, text: str) -> None:
        if self.parent_gm is not None:
            self.parent_gm.audit_note(f"phone scene: {text}")

    def run(self) -> list[str]:
        owner = self.owner
        memories = [f"{owner.name} started using the phone."]
        log: list[str] = []
        if self.trigger:
            log.append(f"Trigger: {self.trigger}")
        capped = True
        for _ in range(self.universe.max_actions):
            so_far = "\n".join(log) if log else "(nothing yet)"
            _, done = self.model.sample_choice(
                f"{owner.name} is using the phone. Activity so far:\n{so_far}\n"
                f"Has {owner.name} finished using the phone?",
                ("yes", "no"),
                caller="phone:scene:done",
            )
            if done == "yes":
                memories.append(f"{owner.name} finished using the phone.")
                capped = False
                break
            spec = ActionSpec("What does {name} do on the phone right now? It is {time}.")
            saved_clock = owner.clock
            owner.clock = self.clock
            try:
                action = owner.act(spec)
            finally:
                owner.clock = saved_clock
            log.append(f"{owner.name}: {action.text}")
            invocation = translate_action(
                self.universe,
                self.phone,
                action.text,
                self.model,
                self.clock.current_time,
                note=self._note,
            )
            if invocation is None:
                text = "The phone has no suitable app for that."
                memories.append(text)
                owner.observe(
                    Observation(recipient=owner.name, text=text, timestamp=self.clock.current_time)
                )
                capped = False
                break
            log.append(f"Phone: {invocation.result}")
            memories.append(f"Phone: {invocation.result}")
            owner.observe(
                Observation(
                    recipient=owner.name,
                    text=invocation.result,
                    timestamp=self.clock.current_time,
                )
            )
            self.clock.advance()
        if capped:
            memories.append("The phone scene reached its step cap.")
            self._note("step cap reached")
        return memories


def run_phone_scene(
    parent_gm: GameMaster,
    universe: PhoneUniverse,
    owner_name: str,
    trigger: str = "",
) -> list[str]:
    """Spawn the nested phone game for one owner and merge it back."""
    child_clock = GameClock(
        current_time=parent_gm.clock.current_time,
        step_minutes=universe.child_step_minutes,
    )

    def factory(agents: list[GenerativeAgent], clock: GameClock) -> PhoneScene:
        return PhoneScene(
            owner=agents[0],
            universe=universe,
            clock=clock,
            model=parent_gm.model,
            parent_gm=parent_gm,
            trigger=trigger,
        )

    return spawn_nested_game(
        parent_gm,
        factory,
        [owner_name],
        child_clock,
        universe.scene_minutes,
        label=f"phone: {owner_name}",
    )


class SceneTrigger(GMComponent):
    """Watches every resolved event and spins up phone scenes when one fits.

    Asking whether the event involves a phone is its query; notes and the
    scene are the effect.
    """

    def __init__(self, universe: PhoneUniverse, name: str = "phone scene trigger"):
        super().__init__(name)
        self.universe = universe

    def query_after_event(self, event: EventStatement) -> Effect:
        assert self.gm is not None
        notes: list[str] = []
        detected = detect_phone_event(event.text, self.gm.model, note=notes.append)
        return functools.partial(self._react, event, detected, notes)

    def _react(self, event: EventStatement, detected: bool, notes: list[str]) -> None:
        assert self.gm is not None
        for note in notes:
            self.gm.audit_note(note)
        if not detected:
            return
        actor = event.cause.actor
        if self.universe.phone_for(actor) is None:
            self.gm.audit_note(f"{actor} has no phone; scene skipped")
            return
        run_phone_scene(self.gm, self.universe, actor, trigger=event.text)

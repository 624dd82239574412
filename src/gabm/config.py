"""Scenario configuration: schema, validation, and wiring.

A scenario file is JSON.  ``load_config`` either returns a validated
ScenarioConfig or raises ConfigValidationError carrying every problem
found, each tagged UnresolvedReference (a name points at nothing) or
MalformedField (a value has the wrong shape) with the offending path.
``build`` turns a validated config into live objects ready to run.

Every config object has a field table, a dict of field name -> type, and
one checker, ``_Validator._check_fields``, checks each object against its
table; a key the table lacks is rejected, in every object.  Agent
components, game-master components and apps are registry-kind objects,
described once in the tables ``AGENT_COMPONENTS``, ``GM_COMPONENTS`` and
``APPS``.  Each maps a kind string to a ``Kind``: the kind's constructor,
its config fields with their types, and the names it declares; a field is
required exactly when its parameter has no default.  A list of them, a
``_Kinds``, keeps the names its objects declare, rejects a name declared
twice, and resolves its objects' ``reads`` against those names.  The other
objects (the top level, ``clock``, ``model``, ``gm``, ``scene``, an agent,
a profile, a questionnaire battery and an action spec) have their tables in
``_CONFIG``; the rules across fields (the script file, age against
``clock.start``, an action spec's options) run once the fields they read
are checked.  A map keyed by agent, such as ``phones``, names only agents
of the ``agents`` list, and a phone only apps the ``apps`` list declares;
both lists are checked before them.
``build`` passes each constructor only the fields the config sets, so
every field ``build`` reads is checked first and each default lives in one
place, the constructor's signature.  Adding a kind is one entry.

A trace holds the config, so every string in a valid config, value or key,
must be writable as UTF-8: a lone surrogate, which a JSON "\\ud800" escape
decodes to, is a MalformedField at its path.  It is checked where each
field's type is: by ``_Type`` for text and string lists, an agent's name
among them, by ``_Map`` for free keys, and by the script rule; every other
string must match a name one of those checked, be a fixed value, or parse
as a quantity, which no lone surrogate does.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

from .agent import (
    RETRIEVAL_MODES,
    AgentComponent,
    ConstantComponent,
    GenerativeAgent,
    ModelQueryComponent,
    ObservationBuffer,
    three_questions_components,
)
from .errors import ConfigError, ConfigIssue, ConfigValidationError
from .game_master import GameMaster, PhraseTerminator, Questionnaire
from .genesis import MAX_AGE, AgentProfile, generate_lives
from .grounding import InventoryComponent, LocationComponent, as_quantity
from .kernel import (
    ActionSpec,
    ClockMode,
    GameClock,
    canonical_config_json,
    parse_time,
    writable,
)
from .model import EchoModel, GenerativeModel, HttpModel, ScriptedModel
from .phone import CalendarApp, PhoneUniverse, SceneTrigger

ENGINE_VERSION = "0.4.0"

MODEL_KINDS = {"scripted": ScriptedModel, "echo": EchoModel, "http": HttpModel}
CLOCK_MODES = {"round": ClockMode.ADVANCE_PER_ROUND, "player": ClockMode.ADVANCE_PER_PLAYER}


@dataclass
class ScenarioConfig:
    """A parsed and validated scenario, hash-stable for trace headers.

    ``raw`` is not changed once validated: its canonical JSON text and the
    text's hash are computed on first use and kept, once per config object.
    The text is ``canonical_json(raw)``, made in one pass by
    ``canonical_config_json``, which writes each list of texts free of JSON
    escapes as one join; recall's 2.2 MB config encodes in about 3 ms,
    against 10-12 ms with the C encoder alone.
    """

    raw: dict
    base_dir: Path

    @cached_property
    def _encoded(self) -> tuple[str, str]:
        text = canonical_config_json(self.raw)
        return text, hashlib.sha256(text.encode("utf-8")).hexdigest()

    def canonical(self) -> str:
        return self._encoded[0]

    def config_hash(self) -> str:
        return self._encoded[1]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def max_steps(self) -> int:
        return self.raw["max_steps"]

    def script_path(self) -> Path | None:
        script = self.raw.get("script")
        return (self.base_dir / script) if script else None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_text(value) -> bool:
    return isinstance(value, str) and value != ""


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_NOT_UTF8 = "holds a lone surrogate (such as a JSON \\ud800 escape), which UTF-8 cannot write"


def _check_writable(v: "_Validator", path: str, value: str | list) -> None:
    """A string, or each string of a list, must be writable into a trace."""
    if isinstance(value, str):
        # ``isascii`` first: it is the common case, and the cheapest test.
        if not value.isascii() and not writable(value):
            v.malformed(path, _NOT_UTF8)
    # One check for a whole list, such as initial memories.
    elif not writable("".join(value)):
        for i, item in enumerate(value):
            _check_writable(v, f"{path}[{i}]", item)


def _check_quantity(v: "_Validator", path: str, value, required: bool) -> None:
    try:
        as_quantity(value)
    except ConfigError as exc:
        v.malformed(path, str(exc))


class _Type(NamedTuple):
    """A field type: the values it accepts, and the issue for any other."""

    accepts: Callable[[object], bool]
    must: str
    required_message: str = ""  # for a required field, when not ``must``
    missing: str = ""  # for a required field that is absent or null, when not the above

    def check(self, v: "_Validator", path: str, value, required: bool) -> None:
        if not self.accepts(value):
            message = required and ((value is None and self.missing) or self.required_message)
            v.malformed(path, message or self.must)
        elif isinstance(value, list) or (isinstance(value, str) and not value.isascii()):
            # A list accepted here holds strings; ASCII holds no surrogate.
            _check_writable(v, path, value)


class _Map(NamedTuple):
    """An object of key -> value; with ``by_agent`` each key must name an agent."""

    values: "_Type | _Map"
    by_agent: bool = False

    def check(self, v: "_Validator", path: str, value, required: bool) -> None:
        if not isinstance(value, dict):
            v.malformed(path, "must be an object")
            return
        for key, item in value.items():
            if self.by_agent and key not in v.agent_names:
                v.unresolved(f"{path}.{key}", f"no agent named {key!r}")
            elif not key.isascii() and not writable(key):
                v.malformed(f"{path}.{key}", "key " + _NOT_UTF8)
            self.values.check(v, f"{path}.{key}", item, False)


class _Object(NamedTuple):
    """A nested object: its field table, then ``rule`` across its fields."""

    fields: dict
    required: frozenset = frozenset()
    must: str = "must be an object"
    nullable: bool = False  # null stands for an absent object
    rule: Callable | None = None  # (validator, path, object), once the fields are checked

    def check(self, v: "_Validator", path: str, value, required: bool) -> None:
        if value is None and self.nullable:
            return
        if v._check_fields(path, value, self.fields, self.required, self.must) and self.rule:
            self.rule(v, path, value)


class _List(NamedTuple):
    """A list whose items each have the type ``item``."""

    item: "_Object | _Rule"
    must: str = "must be a list"
    non_empty: bool = False

    def check(self, v: "_Validator", path: str, value, required: bool) -> None:
        if not isinstance(value, list) or (self.non_empty and not value):
            v.malformed(path, self.must)
            return
        for i, item in enumerate(value):
            self.item.check(v, f"{path}[{i}]", item, True)


class _Kinds(NamedTuple):
    """A list of registry-kind objects, each checked against the kind its ``key`` names.

    The names they declare are kept in ``v.declared[path]``; a name an
    earlier object of the list declared is a duplicate.  The ``reads`` its
    objects collect are then resolved against those names.
    """

    key: str
    kinds: dict
    noun: str = "component"

    def check(self, v: "_Validator", path: str, value, required: bool) -> None:
        if not isinstance(value, list):
            v.malformed(path, "must be a list")
            return
        v.reads = []
        declared = v.declared[path] = []
        for i, obj in enumerate(value):
            kind = v._check_kind(f"{path}[{i}]", obj, self.key, self.kinds)
            if kind is None:
                continue
            names = kind.declares(obj)
            for name in filter(_is_text, names):  # any other name is already reported
                if name in declared:
                    v.malformed(f"{path}[{i}]", f"duplicate {self.noun} name {name!r}")
            declared.extend(names)
        for reads_path, reads in v.reads:
            if not _STRINGS.accepts(reads):
                v.malformed(reads_path, _STRINGS.must)
                continue
            for read in reads:
                if read not in declared:
                    v.unresolved(reads_path, f"no {self.noun} named {read!r} in {path}")


class _Rule(NamedTuple):
    """A field checked by a function of (validator, path, value, required)."""

    check: Callable  # called as the other types' ``check`` methods are


# Peer component names, resolved once every component of the list is declared.
_READS = _Rule(lambda v, path, value, required: v.reads.append((path, value)))


_TEXT = _Type(_is_text, "must be a non-empty string", "required non-empty string")
_STRING = _Type(lambda v: isinstance(v, str), "must be a string", "required string")
_STRINGS = _Type(_is_string_list, "must be a list of strings")
_COUNT = _Type(lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")
_POSITIVE = _Type(lambda v: _is_int(v) and v >= 1, "must be a positive integer")
SEED = _Type(
    lambda v: _is_int(v) and 0 <= v < 2**64, "must be an integer in [0, 2^64)", missing="required"
)
MAX_STEPS = _POSITIVE._replace(missing="required")


class Kind:
    """One registry entry: a constructor, and each config field it takes with its type.

    A kind with a ``name`` field declares that name, defaulting as ``make``
    does; any other kind declares ``declares``.
    """

    def __init__(self, make: Callable, *, declares=(), **fields):
        params = inspect.signature(make).parameters
        self.make = make
        self.fields = fields
        self.required = frozenset(f for f in fields if params[f].default is inspect.Parameter.empty)
        self._declares = list(declares)
        if "name" in fields:
            default = params["name"].default
            self._name_default = "" if default is inspect.Parameter.empty else default

    def declares(self, obj: dict) -> list:
        if "name" in self.fields:
            return [obj.get("name", self._name_default)]
        return self._declares

    def build(self, obj: dict, **extra):
        return self.make(**extra, **_given(obj, self.fields))


def _given(obj: dict, names) -> dict:
    """The fields among ``names`` that ``obj`` sets."""
    return {name: obj[name] for name in names if name in obj}


AGENT_COMPONENTS = {
    "constant": Kind(ConstantComponent, name=_TEXT, text=_STRING),
    "observations": Kind(
        ObservationBuffer,
        name=_TEXT,
        max_items=_Type(lambda v: _is_int(v) and 0 <= v < 2**31, "must be an integer in [0, 2^31)"),
    ),
    "model_query": Kind(
        ModelQueryComponent,
        name=_TEXT,
        question=_TEXT,
        retrieval=_Type(lambda v: v in RETRIEVAL_MODES, "must be recent, associative, or none"),
        k=_COUNT,
        query_text=_STRING,
        reads=_READS,
        initial_state=_STRING,
    ),
    "three_questions": Kind(
        three_questions_components,
        declares=[c.name for c in three_questions_components()],
        k=_COUNT,
    ),
}
GM_COMPONENTS = {
    "inventory": Kind(
        InventoryComponent,
        endowments=_Map(_Map(_Rule(_check_quantity)), by_agent=True),
        items=_STRINGS,
        name=_TEXT,
    ),
    "locations": Kind(LocationComponent, locations=_Map(_TEXT, by_agent=True), name=_TEXT),
    "scene_trigger": Kind(SceneTrigger, name=_TEXT),
    "phrase_terminator": Kind(PhraseTerminator, phrase=_TEXT, name=_TEXT),
}
APPS = {"calendar": Kind(CalendarApp, name=_TEXT)}
_PROFILE = Kind(
    AgentProfile,
    age=_Type(lambda v: _is_int(v) and 1 <= v <= MAX_AGE, f"must be an integer in [1, {MAX_AGE}]"),
    traits=_STRINGS,
    context=_STRING,
)


# The other config objects, each a field table plus the rules across fields.


def _check_start(v: "_Validator", path: str, start, required: bool) -> None:
    if not isinstance(start, str):
        v.malformed(path, "required ISO minute timestamp")
        return
    try:
        v.start = parse_time(start)
    except ValueError:
        v.malformed(path, f"not an ISO minute timestamp: {start!r}")


def _check_script(v: "_Validator", path: str, script, required: bool) -> None:
    if script is None:
        return
    if not isinstance(script, str):
        v.malformed(path, "must be a path string")
    elif not writable(script):
        v.malformed(path, _NOT_UTF8)
    elif v.check_files and not (v.base_dir / script).is_file():
        v.unresolved(path, f"script file not found: {script}")


_OUTPUT_KIND = _Type(lambda v: v in ("free", "choice", "float"), "must be free, choice, or float")


def _check_options(v: "_Validator", path: str, spec: dict) -> None:
    """Build the spec once its fields have their types: ActionSpec holds the option rules."""
    shapes = (("output_kind", _OUTPUT_KIND), ("options", _STRINGS))
    if all(name not in spec or ftype.accepts(spec[name]) for name, ftype in shapes):
        try:
            ActionSpec.from_dict({**spec, "call_to_action": ""})
        except ValueError as exc:
            v.malformed(f"{path}.options", str(exc))


_ACTION_SPEC = _Object(
    {"call_to_action": _TEXT, "output_kind": _OUTPUT_KIND, "options": _STRINGS},
    frozenset({"call_to_action"}),
    rule=_check_options,
)


def _check_age(v: "_Validator", path: str, profile: dict) -> None:
    # Genesis back-dates the backstory to the birth year, start - age.
    age = profile.get("age")
    if v.start is not None and _PROFILE.fields["age"].accepts(age) and age >= v.start.year:
        v.malformed(f"{path}.age", f"back-dates before year 1 of clock.start {v.start.year}")


def _check_agent_name(v: "_Validator", path: str, name, required: bool) -> None:
    """A non-empty string no earlier agent has."""
    _TEXT.check(v, path, name, required)
    if _is_text(name):
        if name in v.agent_names:
            v.malformed(path, f"duplicate agent name {name!r}")
        v.agent_names.add(name)


_AGENT_FIELDS = {
    "name": _Rule(_check_agent_name),
    "initial_memories": _STRINGS,
    "profile": _Object(_PROFILE.fields, _PROFILE.required, nullable=True, rule=_check_age),
    "components": _Kinds("type", AGENT_COMPONENTS),
}


def _check_installed(v: "_Validator", path: str, apps, required: bool) -> None:
    """A phone's apps, each one the ``apps`` list declares."""
    if not _is_string_list(apps):
        v.malformed(path, "must be a list of app names")
        return
    for app in apps:
        if app not in v.declared.get("apps", ()):
            v.unresolved(path, f"no app named {app!r}")


_SCENE = Kind(PhoneUniverse, minutes=_COUNT, max_actions=_POSITIVE, child_step_minutes=_COUNT)
_CONFIG = _Object(
    {
        "seed": SEED,
        "max_steps": MAX_STEPS,
        "clock": _Object(
            {
                "start": _Rule(_check_start),
                "step_minutes": _COUNT,
                "mode": _Type(
                    lambda m: isinstance(m, str) and m in CLOCK_MODES,
                    f"must be one of {sorted(CLOCK_MODES)}",
                ),
            },
            frozenset({"start", "step_minutes"}),
            "required object with start, step_minutes, mode",
        ),
        "model": _Object(
            {
                "kind": _Type(
                    lambda k: isinstance(k, str) and k in MODEL_KINDS,
                    f"must be one of {list(MODEL_KINDS)}",
                )
            },
            frozenset({"kind"}),
            "required object with kind",
        ),
        "script": _Rule(_check_script),
        "action_spec": _ACTION_SPEC._replace(nullable=True),
        "agents": _List(
            _Object(_AGENT_FIELDS, frozenset({"name"})), "required non-empty list", non_empty=True
        ),
        "gm": _Object({"preamble": _TEXT, "components": _Kinds("type", GM_COMPONENTS)}),
        "apps": _Kinds("kind", APPS, "app"),
        "phones": _Map(_Rule(_check_installed), by_agent=True),
        "scene": _Object(_SCENE.fields, nullable=True),
        "questionnaires": _List(
            _Object(
                {
                    "name": _TEXT,
                    "questions": _List(_ACTION_SPEC, "required non-empty list", non_empty=True),
                },
                frozenset({"name", "questions"}),
            )
        ),
    },
    frozenset({"seed", "max_steps", "clock", "model", "agents"}),
    "config must be a JSON object",
)


class _Validator:
    def __init__(self, raw: dict, base_dir: Path, check_files: bool = True):
        self.raw = raw
        self.base_dir = base_dir
        self.check_files = check_files
        self.issues: list[ConfigIssue] = []
        self.agent_names: set[str] = set()
        # The names each registry list declares, by the list's path, and the
        # reads fields of the list being checked.
        self.declared: dict[str, list] = {}
        self.reads: list[tuple[str, object]] = []
        self.start: datetime | None = None  # clock.start, once it parses

    def malformed(self, path: str, message: str) -> None:
        self.issues.append(ConfigIssue("MalformedField", path, message))

    def unresolved(self, path: str, message: str) -> None:
        self.issues.append(ConfigIssue("UnresolvedReference", path, message))

    def run(self) -> list[ConfigIssue]:
        _CONFIG.check(self, "$", self.raw, True)
        return self.issues

    def _check_fields(
        self, path: str, obj, fields: dict, required=frozenset(), must="must be an object", kind_key=None
    ) -> bool:
        """Check an object against its field table; False when it is not an object.

        Keys outside the table are unknown, except ``kind_key``, the key naming
        a registry kind.  The fields are then checked in table order.
        """
        if not isinstance(obj, dict):
            self.malformed(path, must)
            return False
        prefix = "" if path == "$" else f"{path}."
        for name in obj:
            if name not in fields and name != kind_key:
                self.malformed(f"{prefix}{name}", "unknown field")
        for name, ftype in fields.items():
            if name in obj:
                ftype.check(self, prefix + name, obj[name], name in required)
            elif name in required:
                ftype.check(self, prefix + name, None, True)
        return True

    def _check_kind(self, path: str, obj, key: str, kinds: dict[str, Kind]) -> Kind | None:
        """Check a registry-kind object against its entry."""
        if not isinstance(obj, dict):
            self.malformed(path, "must be an object")
            return None
        kind = obj.get(key)
        entry = kinds.get(kind) if isinstance(kind, str) else None
        if entry is None:
            self.malformed(f"{path}.{key}", f"must be one of {list(kinds)}")
            return None
        self._check_fields(path, obj, entry.fields, entry.required, kind_key=key)
        return entry


def validate_config(raw: dict, base_dir: Path, check_files: bool = True) -> list[ConfigIssue]:
    return _Validator(raw, base_dir, check_files).run()


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file; every problem is reported at once."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigValidationError(
            [ConfigIssue("MalformedField", str(path), f"cannot read config: {exc}")]
        ) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigValidationError(
            [ConfigIssue("MalformedField", str(path), f"not valid JSON: {exc}")]
        ) from exc
    return config_from_dict(raw, path.parent)


def config_from_dict(raw: dict, base_dir: str | Path = ".", check_files: bool = True) -> ScenarioConfig:
    """Validate an in-memory config dict (e.g. one embedded in a trace)."""
    base_dir = Path(base_dir)
    issues = validate_config(raw, base_dir, check_files)
    if issues:
        raise ConfigValidationError(issues)
    return ScenarioConfig(raw=raw, base_dir=base_dir)


@dataclass
class BuiltScenario:
    """Live objects wired from one config, ready for run_episode."""

    config: ScenarioConfig
    gm: GameMaster
    seed: int = 0
    max_steps: int = 1


def build_model(config: ScenarioConfig, script_override: str | Path | None = None) -> GenerativeModel:
    kind = MODEL_KINDS[config.raw["model"]["kind"]]
    script = Path(script_override) if script_override else config.script_path()
    if kind is ScriptedModel and script is not None:
        return ScriptedModel.from_file(str(script))
    return kind()


def build(
    config: ScenarioConfig,
    model: GenerativeModel | None = None,
    script_override: str | Path | None = None,
    seed_override: int | None = None,
    max_steps_override: int | None = None,
) -> BuiltScenario:
    """Wire a validated config into a GameMaster and friends."""
    raw = config.raw
    seed = seed_override if seed_override is not None else config.seed
    max_steps = max_steps_override if max_steps_override is not None else config.max_steps
    if model is None:
        model = build_model(config, script_override)

    # Each object passes on only the fields the config sets; the
    # constructors hold the defaults.
    clock_cfg = raw["clock"]
    clock = GameClock(
        current_time=parse_time(clock_cfg["start"]),
        step_minutes=clock_cfg["step_minutes"],
        **({"mode": CLOCK_MODES[clock_cfg["mode"]]} if "mode" in clock_cfg else {}),
    )

    players: list[GenerativeAgent] = []
    for agent_cfg in raw["agents"]:
        components: list[AgentComponent] = []
        for comp in agent_cfg.get("components", []):
            made = AGENT_COMPONENTS[comp["type"]].build(comp)
            components.extend(made if isinstance(made, list) else [made])
        players.append(GenerativeAgent(name=agent_cfg["name"], model=model, components=components))
    # Genesis records go into each bank before its initial memories.
    generate_lives(
        [
            (_PROFILE.build(agent_cfg["profile"], name=agent.name), agent.memory)
            for agent_cfg, agent in zip(raw["agents"], players)
            if agent_cfg.get("profile") is not None
        ],
        model,
        clock.current_time,
    )
    for agent_cfg, agent in zip(raw["agents"], players):
        agent.memory.add_all(agent_cfg.get("initial_memories", []), clock.current_time)

    gm_cfg = raw.get("gm", {})
    # A game has phones when its config sets apps, phones or a scene.
    # Each app is built once; the phones that install it share the object.
    universe: PhoneUniverse | None = None
    apps_cfg = raw.get("apps", [])
    phones_cfg = raw.get("phones", {})
    scene_cfg = raw.get("scene") or {}
    if apps_cfg or phones_cfg or scene_cfg:
        apps = {app.name: app for app in (APPS[cfg["kind"]].build(cfg) for cfg in apps_cfg)}
        phones = {owner: [apps[name] for name in names] for owner, names in phones_cfg.items()}
        universe = _SCENE.build(scene_cfg, phones=phones)

    action_spec = raw.get("action_spec")
    gm = GameMaster(
        model=model,
        players=players,
        clock=clock,
        components=[GM_COMPONENTS[comp["type"]].build(comp) for comp in gm_cfg.get("components", [])],
        action_spec=ActionSpec.from_dict(action_spec) if action_spec is not None else None,
        rng=random.Random(seed),
        questionnaires=[
            Questionnaire(battery["name"], [ActionSpec.from_dict(q) for q in battery["questions"]])
            for battery in raw.get("questionnaires", [])
        ],
        phones=universe,
        **_given(gm_cfg, ["preamble"]),
    )
    return BuiltScenario(config=config, gm=gm, seed=seed, max_steps=max_steps)

"""Scenario configuration: schema, validation, and wiring.

A scenario file is JSON.  ``load_config`` either returns a validated
ScenarioConfig or raises ConfigValidationError carrying every problem
found, each tagged UnresolvedReference (a name points at nothing) or
MalformedField (a value has the wrong shape) with the offending path.
``build`` turns a validated config into live objects ready to run.

Agent components, game-master components and apps are described once, in
the registry tables ``AGENT_COMPONENTS``, ``GM_COMPONENTS`` and ``APPS``.
Each maps a kind string to a ``Kind``: the kind's constructor, its config
fields with their types, and the names it declares.  Validation checks a
component object against its kind, unknown fields included, and ``build``
passes the constructor only the fields the object contains.  So every
field ``build`` reads is checked first, each default lives in one place
(the constructor's signature), and a field is required exactly when its
parameter has no default.  Adding a kind is one entry.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
from dataclasses import dataclass, field
from datetime import datetime
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
from .game_master import (
    DEFAULT_GM_PREAMBLE,
    GameMaster,
    GMComponent,
    ObservationDelivery,
    PhraseTerminator,
)
from .genesis import MAX_AGE, AgentProfile, generate_and_seed
from .grounding import InventoryComponent, LocationComponent, Questionnaire, as_quantity
from .kernel import (
    ActionSpec,
    ClockMode,
    GameClock,
    canonical_json,
    parse_time,
)
from .memory import HashEmbedder, MemoryBank
from .model import EchoModel, GenerativeModel, HttpModel, ScriptedModel
from .phone import CalendarApp, PhoneUniverse, SceneTrigger

ENGINE_VERSION = "0.1.0"

MODEL_KINDS = {"scripted": ScriptedModel, "echo": EchoModel, "http": HttpModel}
CLOCK_MODES = {"round": ClockMode.ADVANCE_PER_ROUND, "player": ClockMode.ADVANCE_PER_PLAYER}
TOP_LEVEL_KEYS = {
    "seed",
    "max_steps",
    "clock",
    "model",
    "script",
    "action_spec",
    "agents",
    "gm",
    "apps",
    "phones",
    "scene",
    "questionnaires",
}


@dataclass
class ScenarioConfig:
    """A parsed and validated scenario, hash-stable for trace headers."""

    raw: dict
    base_dir: Path
    path: Path | None = None

    def canonical(self) -> str:
        return canonical_json(self.raw)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

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


def _is_quantity(value) -> bool:
    try:
        as_quantity(value)
    except ConfigError:
        return False
    return True


class _Type(NamedTuple):
    """A field type: the values it accepts, and the issue for any other."""

    accepts: Callable[[object], bool]
    must: str
    required_message: str = ""  # for a required field, when not ``must``

    def check(self, v: "_Validator", path: str, value, required: bool) -> None:
        if not self.accepts(value):
            v.malformed(path, (self.required_message or self.must) if required else self.must)


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
            self.values.check(v, f"{path}.{key}", item, False)


class _Reads:
    """Peer component names, resolved once all of the agent's components are declared."""

    def check(self, v: "_Validator", path: str, value, required: bool) -> None:
        v.reads.append((path, value))


_TEXT = _Type(_is_text, "must be a non-empty string", "required non-empty string")
_STRING = _Type(lambda v: isinstance(v, str), "must be a string", "required string")
_STRINGS = _Type(_is_string_list, "must be a list of strings")
_COUNT = _Type(lambda v: _is_int(v) and v >= 0, "must be a non-negative integer")
_POSITIVE = _Type(lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_BOOL = _Type(lambda v: isinstance(v, bool), "must be true or false")


class Kind:
    """One registry entry: a constructor, and each config field it takes with its type.

    A kind with a ``name`` field declares that name, defaulting as ``make``
    does; any other kind declares ``declares``.  ``universe`` marks a
    constructor that takes the phone universe.
    """

    def __init__(self, make: Callable, *, declares=(), universe: bool = False, **fields):
        params = inspect.signature(make).parameters
        self.make = make
        self.fields = fields
        self.required = frozenset(f for f in fields if params[f].default is inspect.Parameter.empty)
        self.universe = universe
        self._declares = list(declares)
        if "name" in fields:
            default = params["name"].default
            self._name_default = "" if default is inspect.Parameter.empty else default

    def declares(self, obj: dict) -> list:
        if "name" in self.fields:
            return [obj.get("name", self._name_default)]
        return self._declares

    def build(self, obj: dict, **extra):
        return self.make(**extra, **{name: obj[name] for name in self.fields if name in obj})


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
        reads=_Reads(),
        cadence=_Type(
            lambda v: v in ("step", "manual") or (_is_int(v) and v >= 1),
            'must be "step", "manual" or a positive integer',
        ),
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
        endowments=_Map(_Map(_Type(_is_quantity, "must be a quantity")), by_agent=True),
        items=_STRINGS,
        name=_TEXT,
    ),
    "locations": Kind(LocationComponent, locations=_Map(_TEXT, by_agent=True), name=_TEXT),
    "scene_trigger": Kind(SceneTrigger, universe=True, name=_TEXT),
    "phrase_terminator": Kind(PhraseTerminator, phrase=_TEXT, name=_TEXT),
    "observation_delivery": Kind(ObservationDelivery, name=_TEXT),
}
APPS = {"calendar": Kind(CalendarApp, name=_TEXT)}
_PROFILE = Kind(
    AgentProfile,
    age=_Type(lambda v: _is_int(v) and 1 <= v <= MAX_AGE, f"must be an integer in [1, {MAX_AGE}]"),
    traits=_STRINGS,
    context=_STRING,
)
_GM_FIELDS = {"preamble": _STRING}
_SCENE_FIELDS = {"minutes": _COUNT, "max_actions": _POSITIVE, "child_step_minutes": _COUNT}
_BATTERY_FIELDS = {"name": _TEXT, "administer_at_end": _BOOL}


class _Validator:
    def __init__(self, raw: dict, base_dir: Path, check_files: bool = True):
        self.raw = raw
        self.base_dir = base_dir
        self.check_files = check_files
        self.issues: list[ConfigIssue] = []
        self.agent_names: set[str] = set()
        self.reads: list[tuple[str, object]] = []
        self.start: datetime | None = None  # clock.start, once it parses

    def malformed(self, path: str, message: str) -> None:
        self.issues.append(ConfigIssue("MalformedField", path, message))

    def unresolved(self, path: str, message: str) -> None:
        self.issues.append(ConfigIssue("UnresolvedReference", path, message))

    def run(self) -> list[ConfigIssue]:
        raw = self.raw
        if not isinstance(raw, dict):
            self.malformed("$", "config must be a JSON object")
            return self.issues
        for key in raw:
            if key not in TOP_LEVEL_KEYS:
                self.malformed(key, "unknown field")
        self._check_seed()
        self._check_max_steps()
        self._check_clock()
        self._check_model()
        if raw.get("action_spec") is not None:
            self._check_action_spec("action_spec", raw["action_spec"])
        self.agent_names = self._check_agents()
        self._check_gm()
        app_names = self._check_apps()
        self._check_phones(app_names)
        if raw.get("scene") is not None:
            self._check_fields("scene", raw["scene"], _SCENE_FIELDS)
        self._check_questionnaires()
        return self.issues

    def _check_fields(self, path: str, obj, fields: dict, required=frozenset()) -> bool:
        """Check an object's listed fields; False when it is not an object."""
        if not isinstance(obj, dict):
            self.malformed(path, "must be an object")
            return False
        for name, ftype in fields.items():
            if name in obj or name in required:
                ftype.check(self, f"{path}.{name}", obj.get(name), name in required)
        return True

    def _check_kind(self, path: str, obj, key: str, kinds: dict[str, Kind]) -> Kind | None:
        """Check a component or app object against its registry entry."""
        if not isinstance(obj, dict):
            self.malformed(path, "must be an object")
            return None
        kind = obj.get(key)
        entry = kinds.get(kind) if isinstance(kind, str) else None
        if entry is None:
            self.malformed(f"{path}.{key}", f"must be one of {list(kinds)}")
            return None
        for name in obj:
            if name != key and name not in entry.fields:
                self.malformed(f"{path}.{name}", "unknown field")
        self._check_fields(path, obj, entry.fields, entry.required)
        return entry

    def _check_seed(self) -> None:
        seed = self.raw.get("seed")
        if seed is None:
            self.malformed("seed", "required")
        elif not _is_int(seed) or not (0 <= seed < 2**64):
            self.malformed("seed", "must be an integer in [0, 2^64)")

    def _check_max_steps(self) -> None:
        steps = self.raw.get("max_steps")
        if steps is None:
            self.malformed("max_steps", "required")
        elif not _is_int(steps) or steps < 1:
            self.malformed("max_steps", "must be a positive integer")

    def _check_clock(self) -> None:
        clock = self.raw.get("clock")
        if not isinstance(clock, dict):
            self.malformed("clock", "required object with start, step_minutes, mode")
            return
        start = clock.get("start")
        if not isinstance(start, str):
            self.malformed("clock.start", "required ISO minute timestamp")
        else:
            try:
                self.start = parse_time(start)
            except ValueError:
                self.malformed("clock.start", f"not an ISO minute timestamp: {start!r}")
        _COUNT.check(self, "clock.step_minutes", clock.get("step_minutes"), True)
        mode = clock.get("mode")
        if "mode" in clock and not (isinstance(mode, str) and mode in CLOCK_MODES):
            self.malformed("clock.mode", f"must be one of {sorted(CLOCK_MODES)}")

    def _check_model(self) -> None:
        model = self.raw.get("model")
        if not isinstance(model, dict):
            self.malformed("model", "required object with kind")
            return
        kind = model.get("kind")
        if not isinstance(kind, str) or kind not in MODEL_KINDS:
            self.malformed("model.kind", f"must be one of {list(MODEL_KINDS)}")
        script = self.raw.get("script")
        if script is not None:
            if not isinstance(script, str):
                self.malformed("script", "must be a path string")
            elif self.check_files and not (self.base_dir / script).is_file():
                self.unresolved("script", f"script file not found: {script}")

    def _check_action_spec(self, path: str, spec) -> None:
        if not isinstance(spec, dict):
            self.malformed(path, "must be an object")
            return
        _TEXT.check(self, f"{path}.call_to_action", spec.get("call_to_action"), True)
        kind = spec.get("output_kind", "free")
        if kind not in ("free", "choice", "float"):
            self.malformed(f"{path}.output_kind", "must be free, choice, or float")
        options = spec.get("options", [])
        if not _is_string_list(options):
            self.malformed(f"{path}.options", "must be a list of strings")
        elif kind == "choice":
            if len(options) < 2 or len(set(options)) != len(options):
                self.malformed(f"{path}.options", "choice needs at least two distinct options")
        elif options:
            self.malformed(f"{path}.options", f"{kind} takes no options")

    def _check_agents(self) -> set[str]:
        agents = self.raw.get("agents")
        names: set[str] = set()
        if not isinstance(agents, list) or not agents:
            self.malformed("agents", "required non-empty list")
            return names
        for i, agent in enumerate(agents):
            path = f"agents[{i}]"
            if not isinstance(agent, dict):
                self.malformed(path, "must be an object")
                continue
            name = agent.get("name")
            if not isinstance(name, str) or not name:
                self.malformed(f"{path}.name", "required non-empty string")
                continue
            if name in names:
                self.malformed(f"{path}.name", f"duplicate agent name {name!r}")
            names.add(name)
            if not _is_string_list(agent.get("initial_memories", [])):
                self.malformed(f"{path}.initial_memories", "must be a list of strings")
            if agent.get("profile") is not None:
                self._check_profile(f"{path}.profile", agent["profile"])
            self._check_agent_components(path, agent, name)
        return names

    def _check_profile(self, path: str, profile) -> None:
        if not self._check_fields(path, profile, _PROFILE.fields, _PROFILE.required):
            return
        # Genesis back-dates the backstory to the birth year, start - age.
        age = profile.get("age")
        if self.start is not None and _PROFILE.fields["age"].accepts(age) and age >= self.start.year:
            self.malformed(f"{path}.age", f"back-dates before year 1 of clock.start {self.start.year}")

    def _check_agent_components(self, path: str, agent: dict, agent_name: str) -> None:
        components = agent.get("components", [])
        if not isinstance(components, list):
            self.malformed(f"{path}.components", "must be a list")
            return
        declared: list = []
        self.reads = []
        for j, comp in enumerate(components):
            kind = self._check_kind(f"{path}.components[{j}]", comp, "type", AGENT_COMPONENTS)
            if kind is not None:
                declared.extend(kind.declares(comp))
        for reads_path, reads in self.reads:
            if not isinstance(reads, list):
                self.malformed(reads_path, "must be a list")
                continue
            for read in reads:
                if read not in declared:
                    message = f"agent {agent_name!r} declares no component {read!r}"
                    self.unresolved(reads_path, message)

    def _check_gm(self) -> None:
        gm = self.raw.get("gm", {})
        if not self._check_fields("gm", gm, _GM_FIELDS):
            return
        components = gm.get("components", [])
        if not isinstance(components, list):
            self.malformed("gm.components", "must be a list")
            return
        for i, comp in enumerate(components):
            self._check_kind(f"gm.components[{i}]", comp, "type", GM_COMPONENTS)

    def _check_apps(self) -> set[str]:
        apps = self.raw.get("apps", [])
        names: set[str] = set()
        if not isinstance(apps, list):
            self.malformed("apps", "must be a list")
            return names
        for i, app in enumerate(apps):
            path = f"apps[{i}]"
            kind = self._check_kind(path, app, "kind", APPS)
            if not isinstance(app, dict):
                continue
            # An app of unknown kind is still named, by default after its kind.
            name = kind.declares(app)[0] if kind else app.get("name", app.get("kind"))
            if not _is_text(name):
                if kind is None:
                    self.malformed(f"{path}.name", "must be a non-empty string")
                continue
            if name in names:
                self.malformed(f"{path}.name", f"duplicate app name {name!r}")
            names.add(name)
        return names

    def _check_phones(self, app_names: set[str]) -> None:
        phones = self.raw.get("phones", {})
        if not isinstance(phones, dict):
            self.malformed("phones", "must be an object of owner -> app names")
            return
        for owner, apps in phones.items():
            if owner not in self.agent_names:
                self.unresolved(f"phones.{owner}", f"no agent named {owner!r}")
            if not _is_string_list(apps):
                self.malformed(f"phones.{owner}", "must be a list of app names")
                continue
            for app in apps:
                if app not in app_names:
                    self.unresolved(f"phones.{owner}", f"no app named {app!r}")

    def _check_questionnaires(self) -> None:
        questionnaires = self.raw.get("questionnaires", [])
        if not isinstance(questionnaires, list):
            self.malformed("questionnaires", "must be a list")
            return
        for i, battery in enumerate(questionnaires):
            path = f"questionnaires[{i}]"
            if not self._check_fields(path, battery, _BATTERY_FIELDS, {"name"}):
                continue
            questions = battery.get("questions")
            if not isinstance(questions, list) or not questions:
                self.malformed(f"{path}.questions", "required non-empty list")
                continue
            for j, question in enumerate(questions):
                self._check_action_spec(f"{path}.questions[{j}]", question)


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
    config = config_from_dict(raw, path.parent)
    config.path = path
    return config


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
    model: GenerativeModel
    players: list[GenerativeAgent]
    universe: PhoneUniverse | None = None
    questionnaires: list[tuple[Questionnaire, bool]] = field(default_factory=list)
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
        bank = MemoryBank(embedder=HashEmbedder())
        agent = GenerativeAgent(
            name=agent_cfg["name"], model=model, memory=bank, components=components, clock=clock
        )
        profile_cfg = agent_cfg.get("profile")
        if profile_cfg is not None:
            profile = _PROFILE.build(profile_cfg, name=agent.name)
            generate_and_seed(profile, model, bank, clock.current_time)
        for text in agent_cfg.get("initial_memories", []):
            bank.add(text, clock.current_time)
        players.append(agent)

    gm_cfg = raw.get("gm", {})
    gm_kinds = [(GM_COMPONENTS[comp["type"]], comp) for comp in gm_cfg.get("components", [])]
    universe: PhoneUniverse | None = None
    apps_cfg = raw.get("apps", [])
    phones_cfg = raw.get("phones", {})
    scene_cfg = raw.get("scene") or {}
    if apps_cfg or phones_cfg or scene_cfg or any(kind.universe for kind, _ in gm_kinds):
        scene = {name: scene_cfg[name] for name in _SCENE_FIELDS if name in scene_cfg}
        if "minutes" in scene:
            scene["scene_minutes"] = scene.pop("minutes")
        universe = PhoneUniverse(**scene)
        for app_cfg in apps_cfg:
            universe.register_app(APPS[app_cfg["kind"]].build(app_cfg))
        for owner, app_names in phones_cfg.items():
            universe.give_phone(owner, app_names)

    gm_components: list[GMComponent] = []
    for kind, comp in gm_kinds:
        gm_components.append(kind.build(comp, **({"universe": universe} if kind.universe else {})))
    if not any(isinstance(c, ObservationDelivery) for c in gm_components):
        gm_components.append(ObservationDelivery())

    action_spec = raw.get("action_spec")
    gm = GameMaster(
        model=model,
        players=players,
        clock=clock,
        components=gm_components,
        action_spec=ActionSpec.from_dict(action_spec) if action_spec is not None else None,
        preamble=gm_cfg.get("preamble") or DEFAULT_GM_PREAMBLE,
        rng=random.Random(seed),
    )
    if universe is not None:
        universe.attach(gm)

    questionnaires: list[tuple[Questionnaire, bool]] = []
    for battery in raw.get("questionnaires", []):
        questions = [ActionSpec.from_dict(q) for q in battery["questions"]]
        questionnaires.append(
            (Questionnaire(battery["name"], questions), battery.get("administer_at_end", False))
        )

    return BuiltScenario(
        config=config,
        gm=gm,
        model=model,
        players=players,
        universe=universe,
        questionnaires=questionnaires,
        seed=seed,
        max_steps=max_steps,
    )

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gabm.agent import ConstantComponent, ModelQueryComponent, ObservationBuffer
from gabm.cli import main
from gabm.config import (
    AGENT_COMPONENTS,
    APPS,
    GM_COMPONENTS,
    ScenarioConfig,
    build,
    config_from_dict,
    load_config,
    validate_config,
)
from gabm.errors import ConfigValidationError
from gabm.game_master import ObservationDelivery, PhraseTerminator
from gabm.grounding import InventoryComponent, LocationComponent
from gabm.kernel import ClockMode, OutputKind
from gabm.model import EchoModel, ScriptedModel, ScriptRule
from gabm.phone import PhoneUniverse, SceneTrigger
from gabm.trace import run_built_scenario


def valid_raw() -> dict:
    return {
        "seed": 7,
        "max_steps": 2,
        "clock": {"start": "2024-05-01T09:00", "step_minutes": 30, "mode": "round"},
        "model": {"kind": "scripted"},
        "agents": [
            {
                "name": "Alice",
                "initial_memories": ["Alice likes mornings."],
                "components": [
                    {"type": "constant", "name": "goal", "text": "sell the lamp"},
                    {"type": "observations"},
                    {
                        "type": "model_query",
                        "name": "plan",
                        "question": "What next?",
                        "retrieval": "none",
                        "reads": ["goal"],
                    },
                ],
            },
            {"name": "Bob", "components": [{"type": "three_questions"}]},
        ],
        "gm": {
            "components": [
                {
                    "type": "inventory",
                    "endowments": {"Alice": {"lamp": 1}, "Bob": {"coin": 5}},
                },
                {"type": "locations", "locations": {"Alice": "market", "Bob": "market"}},
                {"type": "phrase_terminator", "phrase": "the market closed"},
            ]
        },
    }


def write_config(tmp_path: Path, raw: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_valid_config_loads(tmp_path):
    path = write_config(tmp_path, valid_raw())
    config = load_config(path)
    assert config.seed == 7
    assert config.max_steps == 2
    assert config.path == path
    assert config.base_dir == tmp_path


def test_config_hash_is_stable_and_content_sensitive(tmp_path):
    raw = valid_raw()
    a = config_from_dict(copy.deepcopy(raw))
    b = config_from_dict(copy.deepcopy(raw))
    assert a.config_hash() == b.config_hash()
    raw["seed"] = 8
    assert config_from_dict(raw).config_hash() != a.config_hash()


def test_all_problems_reported_at_once(tmp_path):
    raw = valid_raw()
    raw["seed"] = -1
    raw["max_steps"] = 0
    raw["clock"]["start"] = "soonish"
    raw["model"]["kind"] = "psychic"
    raw["agents"][0]["components"][2]["reads"] = ["no_such_component"]
    raw["gm"]["components"][0]["endowments"]["Zed"] = {"coin": 1}
    raw["surprise"] = True
    issues = validate_config(raw, tmp_path)
    by_path = {issue.path: issue.kind for issue in issues}
    assert by_path["seed"] == "MalformedField"
    assert by_path["max_steps"] == "MalformedField"
    assert by_path["clock.start"] == "MalformedField"
    assert by_path["model.kind"] == "MalformedField"
    assert by_path["agents[0].components[2].reads"] == "UnresolvedReference"
    assert by_path["gm.components[0].endowments.Zed"] == "UnresolvedReference"
    assert by_path["surprise"] == "MalformedField"
    assert len(issues) == 7


def test_load_config_raises_with_every_issue(tmp_path):
    raw = valid_raw()
    raw["seed"] = "nope"
    raw["agents"][0]["name"] = ""
    path = write_config(tmp_path, raw)
    with pytest.raises(ConfigValidationError) as info:
        load_config(path)
    paths = [i.path for i in info.value.issues]
    assert "seed" in paths
    assert "agents[0].name" in paths
    # Blanking the name also orphans the endowment and location references.
    assert "gm.components[0].endowments.Alice" in paths
    assert "gm.components[1].locations.Alice" in paths
    assert len(info.value.issues) == 4


def test_load_config_unreadable_and_unparseable(tmp_path):
    with pytest.raises(ConfigValidationError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigValidationError) as info:
        load_config(bad)
    assert "not valid JSON" in str(info.value)


def test_missing_script_file_is_unresolved(tmp_path):
    raw = valid_raw()
    raw["script"] = "no_such_script.json"
    issues = validate_config(raw, tmp_path)
    assert [i.kind for i in issues] == ["UnresolvedReference"]
    assert issues[0].path == "script"


def test_duplicate_agent_names_rejected(tmp_path):
    raw = valid_raw()
    raw["agents"].append({"name": "Alice"})
    issues = validate_config(raw, tmp_path)
    assert any("duplicate agent name" in i.message for i in issues)


def test_choice_action_spec_needs_two_distinct_options(tmp_path):
    raw = valid_raw()
    raw["action_spec"] = {"call_to_action": "Pick, {name}.", "output_kind": "choice", "options": ["a"]}
    issues = validate_config(raw, tmp_path)
    assert issues[0].path == "action_spec.options"
    raw["action_spec"]["options"] = ["a", "a"]
    assert validate_config(raw, tmp_path)
    raw["action_spec"] = {"call_to_action": "Go, {name}.", "output_kind": "free", "options": ["a"]}
    issues = validate_config(raw, tmp_path)
    assert "free takes no options" in issues[0].message


def test_three_questions_satisfies_reads(tmp_path):
    raw = valid_raw()
    raw["agents"][1]["components"].append(
        {
            "type": "model_query",
            "name": "gut",
            "question": "Gut feel?",
            "retrieval": "none",
            "reads": ["situation", "disposition"],
        }
    )
    assert validate_config(raw, tmp_path) == []


def test_phone_and_app_references_validate(tmp_path):
    raw = valid_raw()
    raw["apps"] = [{"kind": "calendar"}]
    raw["phones"] = {"Alice": ["calendar"]}
    assert validate_config(raw, tmp_path) == []
    raw["phones"] = {"Ghost": ["calendar"], "Alice": ["maps"]}
    issues = validate_config(raw, tmp_path)
    kinds = {(i.kind, i.path) for i in issues}
    assert ("UnresolvedReference", "phones.Ghost") in kinds
    assert ("UnresolvedReference", "phones.Alice") in kinds
    raw["phones"] = {"Alice": ["calendar"]}
    raw["apps"] = [{"kind": "calendar"}, {"kind": "calendar"}]
    issues = validate_config(raw, tmp_path)
    assert any("duplicate app name" in i.message for i in issues)


def test_questionnaire_validation(tmp_path):
    raw = valid_raw()
    raw["questionnaires"] = [
        {"name": "", "questions": []},
        {
            "name": "mood",
            "questions": [
                {"call_to_action": "Happy, {name}?", "output_kind": "choice", "options": ["yes"]}
            ],
        },
    ]
    issues = validate_config(raw, tmp_path)
    paths = {i.path for i in issues}
    assert "questionnaires[0].name" in paths
    assert "questionnaires[0].questions" in paths
    assert "questionnaires[1].questions[0].options" in paths


def test_build_wires_everything(tmp_path):
    raw = valid_raw()
    config = config_from_dict(raw, tmp_path)
    built = build(config)
    assert built.seed == 7 and built.max_steps == 2
    assert isinstance(built.model, ScriptedModel)
    assert [p.name for p in built.players] == ["Alice", "Bob"]
    assert built.gm.clock.current_time.isoformat(timespec="minutes") == "2024-05-01T09:00"
    assert built.gm.clock.mode is ClockMode.ADVANCE_PER_ROUND
    assert built.gm.clock.step_minutes == 30

    alice = built.players[0]
    assert [type(c) for c in alice.components] == [
        ConstantComponent,
        ObservationBuffer,
        ModelQueryComponent,
    ]
    assert alice.memory.texts() == ["Alice likes mornings."]
    bob = built.players[1]
    assert [c.name for c in bob.components] == ["situation", "identity", "disposition"]

    component_types = [type(c) for c in built.gm.components]
    assert component_types == [
        InventoryComponent,
        LocationComponent,
        PhraseTerminator,
        ObservationDelivery,  # auto-appended last
    ]
    inventory = built.gm.components[0]
    assert inventory.inventory.get("Bob", "coin") == 5


def test_build_respects_declared_observation_delivery(tmp_path):
    raw = valid_raw()
    raw["gm"]["components"] = [
        {"type": "observation_delivery", "name": "custom delivery"},
        {"type": "phrase_terminator", "phrase": "done"},
    ]
    built = build(config_from_dict(raw, tmp_path))
    deliveries = [c for c in built.gm.components if isinstance(c, ObservationDelivery)]
    assert len(deliveries) == 1
    assert deliveries[0].name == "custom delivery"


def test_build_scene_trigger_and_universe(tmp_path):
    raw = valid_raw()
    raw["apps"] = [{"kind": "calendar"}]
    raw["phones"] = {"Alice": ["calendar"]}
    raw["scene"] = {"minutes": 10, "max_actions": 2}
    raw["gm"]["components"].append({"type": "scene_trigger"})
    built = build(config_from_dict(raw, tmp_path))
    assert built.universe is not None
    assert built.universe.scene_minutes == 10
    assert built.universe.max_actions == 2
    assert built.universe.phone_for("Alice") is not None
    assert built.gm.notification_hub is built.universe.hub
    assert any(isinstance(c, SceneTrigger) for c in built.gm.components)


def test_build_without_phone_config_has_no_universe(tmp_path):
    built = build(config_from_dict(valid_raw(), tmp_path))
    assert built.universe is None
    assert built.gm.notification_hub is None


def test_build_model_kinds_and_script(tmp_path):
    raw = valid_raw()
    raw["model"] = {"kind": "echo"}
    built = build(config_from_dict(raw, tmp_path))
    assert isinstance(built.model, EchoModel)

    script = tmp_path / "script.json"
    script.write_text(
        json.dumps({"default": "hm", "rules": [{"contains": "x", "response": "y"}]}),
        encoding="utf-8",
    )
    raw["model"] = {"kind": "scripted"}
    raw["script"] = "script.json"
    config = load_config(write_config(tmp_path, raw))
    built = build(config)
    assert isinstance(built.model, ScriptedModel)
    assert built.model.default_response == "hm"
    assert len(built.model.rules) == 1

    other = tmp_path / "other.json"
    other.write_text(json.dumps({"default": "override"}), encoding="utf-8")
    built = build(config, script_override=other)
    assert built.model.default_response == "override"


def test_build_profile_seeds_memory(tmp_path):
    raw = valid_raw()
    raw["agents"][0]["profile"] = {"age": 30, "traits": ["wry"], "context": "harbor town"}
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="Write a short biography", response="Alice, 30, wry."),
            ScriptRule(contains="formative memory", response="I raced the tide."),
        ]
    )
    built = build(config_from_dict(raw, tmp_path), model=model)
    alice = built.players[0]
    texts = alice.memory.texts()
    assert texts[0] == "Alice, 30, wry."
    assert texts.count("I raced the tide.") == 4  # ladder for 30: [6, 12, 18, 25]
    assert texts[-1] == "Alice likes mornings."  # initial memories land after seeding


def test_overrides_take_effect(tmp_path):
    config = config_from_dict(valid_raw(), tmp_path)
    built = build(config, seed_override=99, max_steps_override=5)
    assert built.seed == 99
    assert built.max_steps == 5


def test_questionnaires_built_with_flag(tmp_path):
    raw = valid_raw()
    raw["questionnaires"] = [
        {
            "name": "exit poll",
            "administer_at_end": True,
            "questions": [{"call_to_action": "Verdict, {name}?"}],
        },
        {
            "name": "midway",
            "questions": [
                {
                    "call_to_action": "Mood, {name}?",
                    "output_kind": "choice",
                    "options": ["good", "bad"],
                }
            ],
        },
    ]
    built = build(config_from_dict(raw, tmp_path))
    assert [(q.name, flag) for q, flag in built.questionnaires] == [
        ("exit poll", True),
        ("midway", False),
    ]
    spec = built.questionnaires[1][0].questions[0]
    assert spec.output_kind is OutputKind.CHOICE
    assert spec.options == ("good", "bad")


def test_config_round_trips_through_canonical_json(tmp_path):
    raw = valid_raw()
    config = config_from_dict(raw, tmp_path)
    rehydrated = json.loads(config.canonical())
    assert rehydrated == raw
    again = config_from_dict(rehydrated, tmp_path)
    assert again.config_hash() == config.config_hash()


def _agent_component(i: int, j: int, **fields):
    return lambda raw: raw["agents"][i]["components"][j].update(fields)


def _gm_component(i: int, **fields):
    return lambda raw: raw["gm"]["components"][i].update(fields)


def _endowment(player: str, **holdings):
    return lambda raw: raw["gm"]["components"][0]["endowments"][player].update(holdings)


def _top(**fields):
    return lambda raw: raw.update(fields)


def _profile(age: int, start: str = "2024-05-01T09:00"):
    def edit(raw):
        raw["clock"]["start"] = start
        raw["agents"][0]["profile"] = {"age": age}

    return edit


BATTERY = {"name": "exit", "administer_at_end": "yes", "questions": [{"call_to_action": "Why?"}]}

# Each edit of valid_raw() makes one field malformed in a way that build or
# the run used to trip over, or that was silently ignored.
REJECTED_EDITS = [
    ("max_items", _agent_component(0, 1, max_items="x"), "agents[0].components[1].max_items"),
    ("window too large", _agent_component(0, 1, max_items=2**63), "agents[0].components[1].max_items"),
    ("unknown component field", _agent_component(0, 1, maxitems=3), "agents[0].components[1].maxitems"),
    ("cadence 0", _agent_component(0, 2, cadence=0), "agents[0].components[2].cadence"),
    ("cadence word", _agent_component(0, 2, cadence="hourly"), "agents[0].components[2].cadence"),
    ("model_query k", _agent_component(0, 2, k="x"), "agents[0].components[2].k"),
    ("three_questions k", _agent_component(1, 0, k="x"), "agents[1].components[0].k"),
    (
        "profile context",
        lambda raw: raw["agents"][0].update(profile={"age": 30, "context": 5}),
        "agents[0].profile.context",
    ),
    ("inventory quantity", _endowment("Alice", lamp="abc"), "gm.components[0].endowments.Alice.lamp"),
    ("negative quantity", _endowment("Bob", coin=-2), "gm.components[0].endowments.Bob.coin"),
    ("nan quantity", _endowment("Bob", coin="nan"), "gm.components[0].endowments.Bob.coin"),
    ("inventory items string", _gm_component(0, items="coin"), "gm.components[0].items"),
    ("unknown gm component field", _gm_component(1, where="x"), "gm.components[1].where"),
    ("gm preamble", lambda raw: raw["gm"].update(preamble=5), "gm.preamble"),
    ("unknown app field", _top(apps=[{"kind": "calendar", "size": 3}]), "apps[0].size"),
    ("scene child_step_minutes", _top(scene={"child_step_minutes": "x"}), "scene.child_step_minutes"),
    ("administer_at_end", _top(questionnaires=[BATTERY]), "questionnaires[0].administer_at_end"),
    ("unhashable clock mode", lambda raw: raw["clock"].update(mode=[]), "clock.mode"),
    ("profile age above 150", _profile(20000), "agents[0].profile.age"),
    ("profile age before year 1", _profile(90, start="0050-05-01T08:00"), "agents[0].profile.age"),
]


@pytest.mark.parametrize(
    "edit,path", [pytest.param(edit, path, id=name) for name, edit, path in REJECTED_EDITS]
)
def test_malformed_field_is_rejected_at_its_path(tmp_path, capsys, edit, path):
    raw = valid_raw()
    edit(raw)
    issues = validate_config(raw, tmp_path)
    assert [(i.kind, i.path) for i in issues] == [("MalformedField", path)]
    assert main(["validate-config", "--config", str(write_config(tmp_path, raw))]) == 1
    assert path in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_profile(20000), id="age 20000"),
        pytest.param(_profile(90, start="0050-05-01T08:00"), id="year 50"),
    ],
)
def test_run_rejects_a_profile_that_back_dates_out_of_range(tmp_path, capsys, edit):
    # Both used to pass validation, then end `gabm run` with a raw ValueError
    # from back-dating the backstory.
    raw = valid_raw()
    edit(raw)
    out = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 1
    assert "agents[0].profile.age" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "start,age",
    [pytest.param("2024-05-01T09:00", 150, id="age 150"), pytest.param("0050-05-01T08:00", 49, id="year 1")],
)
def test_oldest_profile_builds_and_runs(tmp_path, start, age):
    raw = valid_raw()
    _profile(age, start)(raw)
    assert validate_config(raw, tmp_path) == []
    built = build(config_from_dict(raw, tmp_path), model=EchoModel(), max_steps_override=1)
    first = built.players[0].memory.snapshot()[0]
    assert first.timestamp.year == int(start[:4]) - age
    assert run_built_scenario(built).result.reason == "max-steps"


# The smallest object of each registry kind: its required fields only.
MINIMAL_OBJECTS = {
    "constant": {"type": "constant", "name": "goal", "text": "sell the lamp"},
    "observations": {"type": "observations"},
    "model_query": {"type": "model_query", "name": "plan", "question": "What next?"},
    "three_questions": {"type": "three_questions"},
    "inventory": {"type": "inventory"},
    "locations": {"type": "locations"},
    "scene_trigger": {"type": "scene_trigger"},
    "phrase_terminator": {"type": "phrase_terminator", "phrase": "the market closed"},
    "observation_delivery": {"type": "observation_delivery"},
    "calendar": {"kind": "calendar"},
}


def test_every_registry_kind_has_a_minimal_object():
    assert set(MINIMAL_OBJECTS) == set(AGENT_COMPONENTS) | set(GM_COMPONENTS) | set(APPS)


@pytest.mark.parametrize("kind", list(MINIMAL_OBJECTS))
def test_minimal_config_of_each_kind_runs_to_max_steps(tmp_path, kind):
    raw = {
        "seed": 3,
        "max_steps": 1,
        "clock": {"start": "2024-05-01T09:00", "step_minutes": 10},
        "model": {"kind": "echo"},
        "agents": [{"name": "Alice"}, {"name": "Bob"}],
    }
    obj = MINIMAL_OBJECTS[kind]
    if kind in AGENT_COMPONENTS:
        raw["agents"][0]["components"] = [obj]
    elif kind in GM_COMPONENTS:
        raw["gm"] = {"components": [obj]}
    else:
        raw["apps"] = [obj]
        raw["phones"] = {"Alice": [kind]}
    built = build(config_from_dict(raw, tmp_path))
    outcome = run_built_scenario(built)
    assert (outcome.result.reason, outcome.result.error) == ("max-steps", "")
    assert outcome.records_written == 2


def test_null_scene_builds_a_universe_with_default_scene_settings(tmp_path):
    raw = valid_raw()
    raw["apps"] = [{"kind": "calendar"}]
    raw["scene"] = None
    built = build(config_from_dict(raw, tmp_path))
    assert built.universe.scene_minutes == PhoneUniverse().scene_minutes


def _positions(node, path=()):
    """The path of every value inside a config, and of every object in it."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _positions(value, path + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_replaced_or_unknown_field_is_rejected_or_runs_to_an_ending(data):
    raw = valid_raw()
    positions = list(_positions(raw))
    if data.draw(st.booleans(), label="replace a field"):
        path = data.draw(st.sampled_from([p for p, _ in positions]), label="field")
        _at(raw, path[:-1])[path[-1]] = data.draw(JSON_VALUES, label="value")
    else:
        objects = [()] + [p for p, value in positions if isinstance(value, dict)]
        obj = _at(raw, data.draw(st.sampled_from(objects), label="object"))
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in obj), label="key")
        obj[key] = data.draw(JSON_VALUES, label="value")
    if validate_config(raw, Path(".")):
        return
    built = build(config_from_dict(raw), model=EchoModel(), max_steps_override=2)
    outcome = run_built_scenario(built)
    assert outcome.result.reason in {"max-steps", "component-terminated", "error"}

from __future__ import annotations

import copy
import gc
import hashlib
import io
import threading
import time
from pathlib import Path

import pytest

import gabm
from gabm.cli import main
from gabm.config import build, build_model, config_from_dict, load_config
from gabm.model import GenerativeModel, ScriptedModel, ScriptRule
from gabm.trace import read_trace, replay, run_built_scenario

SCENARIOS = Path(gabm.__file__).parent / "scenarios"
SCRIPTED = ["calendar.json", "magic_beans.json", "three_questions.json"]
# Sketches ship for an HTTP model.  cyberball runs below behind a scripted
# stand-in; riverbend_election seeds its agents from profiles at build time,
# and those genesis calls are not yet recorded, so its traces cannot replay.
SKETCHES = ["riverbend_election.json", "cyberball.json"]
# sha256 of each scripted fixture's trace: the shipped fixtures must replay
# byte for byte from one release to the next.  A deliberate change to the
# trace format or to what a fixture's run writes bumps
# config.ENGINE_VERSION and updates these pins in the same change, and
# those of tests/test_workload_traces.py.  Engine 0.3.0 writes each run of
# observations with equal text and time once, and no `prompts` field.
# Engine 0.4.0 drops the empty `observation delivery` entry of `gm_states`
# and its line in every game-master prompt.
FIXTURE_TRACE_SHA256 = {
    "calendar.json": "1699a594f17b778dbeade5762bec9e9e5ff60dd4da4a8235520cd6e09ef14035",
    "magic_beans.json": "2ea854faf1387221c6aec9195b2152bbab0618159da1f8e15ef8de35bfd2eb5c",
    "three_questions.json": "2e86196e95b4ae25ef0d713471cb961f6a70effe79062fa7e07ed255e7d8b9b9",
}


@pytest.mark.parametrize("name", SCRIPTED + SKETCHES)
def test_shipped_configs_validate(name):
    config = load_config(SCENARIOS / name)
    assert config.raw["agents"]


def test_calendar_config_has_two_agents():
    config = load_config(SCENARIOS / "calendar.json")
    assert [a["name"] for a in config.raw["agents"]] == ["Alice", "Bob"]


def test_calendar_meeting_and_notification():
    built = build(load_config(SCENARIOS / "calendar.json"))
    records = []
    outcome = run_built_scenario(built, on_record=records.append)
    assert outcome.result.reason == "max-steps"
    meetings = built.gm.phones.phones["Alice"][0].meetings
    assert len(meetings) == 1
    assert meetings[0].title == "garden sync"
    assert set(meetings[0].participants) == {"Alice", "Bob"}
    notified = [
        obs.text
        for record in records
        for obs in record.observations
        if obs.recipient == "Bob" and obs.text.startswith("New meeting")
    ]
    assert notified == ["New meeting 'garden sync' with Alice at 2024-03-15T10:00."]


def test_calendar_on_the_last_day_skips_the_meeting_for_tomorrow_and_replays(tmp_path):
    # The scripted "tomorrow at 10:00" names no day after 9999-12-31: the
    # config validated, then the run died with a raw OverflowError.
    raw = copy.deepcopy(load_config(SCENARIOS / "calendar.json").raw)
    raw["clock"]["start"] = "9999-12-31T09:00"
    built = build(config_from_dict(raw, SCENARIOS))
    out = tmp_path / "trace.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        outcome = run_built_scenario(built, out=handle)
    assert (outcome.result.reason, outcome.records_written) == ("max-steps", 2)
    assert built.gm.phones.phones["Alice"][0].meetings == []
    assert "parameter 'when' never parsed; invocation skipped" in out.read_text(encoding="utf-8")
    report = replay(out)
    assert report.ok, report.detail


def test_magic_beans_ledger_matches_hand_computation():
    built = build(load_config(SCENARIOS / "magic_beans.json"))
    records = []
    outcome = run_built_scenario(built, on_record=records.append)
    # Round 1: Alice buys 3 beans for 6 coin; Carol's 4-coin bid is vetoed.
    # Round 2: Alice sells 1 bean back for 1 coin.
    assert outcome.result.grounded["inventory"] == (
        "Alice has 2.00 beans, 5.00 coin.\n"
        "Bob has 3.00 beans, 7.00 coin.\n"
        "Carol has 0.00 beans, 1.00 coin."
    )
    invalid = [
        (obs.recipient, obs.text)
        for record in records
        for obs in record.observations
        if obs.text.startswith("Your action was invalid")
    ]
    assert invalid == [("Carol", "Your action was invalid: insufficient coin.")]


def test_three_questions_trace_shows_exactly_those_components():
    built = build(load_config(SCENARIOS / "three_questions.json"))
    records = []
    run_built_scenario(built, on_record=records.append)
    turns = [r for r in records if r.kind == "turn"]
    assert len(turns) == 8
    for record in turns:
        assert sorted(record.agent_states) == ["disposition", "identity", "situation"]
    final = [r for r in turns if r.step == 1]
    assert all(all(state for state in r.agent_states.values()) for r in final)


@pytest.mark.parametrize("name", SCRIPTED)
def test_scripted_fixtures_record_and_replay(tmp_path, name):
    built = build(load_config(SCENARIOS / name))
    out = tmp_path / "trace.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        run_built_scenario(built, out=handle)
    assert read_trace(out).errors == []
    report = replay(out)
    assert report.ok, report.detail


@pytest.mark.parametrize("name", SCRIPTED)
def test_scripted_fixture_traces_are_pinned(name):
    out = io.StringIO()
    run_built_scenario(build(load_config(SCENARIOS / name)), out=out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == FIXTURE_TRACE_SHA256[name]


# What `gabm audit` printed for each fixture at engine 0.2.0, which wrote
# every observation once per recipient and each act prompt twice: the whole
# report (render_report), the report of each agent, and the
# --extract-pairs file (extract_pairs).  How records are encoded must not
# change what an audit shows.
AUDIT_VIEWS = Path(__file__).parent / "audit_views"


@pytest.mark.parametrize("name", SCRIPTED)
def test_fixture_audit_views_are_those_engine_0_2_0_printed(tmp_path, capsys, name):
    config = load_config(SCENARIOS / name)
    trace = tmp_path / "trace.jsonl"
    with open(trace, "w", encoding="utf-8") as handle:
        run_built_scenario(build(config), out=handle)
    stem = Path(name).stem
    views = {f"{stem}.txt": []}
    views.update({f"{stem}.{a['name']}.txt": ["--agent", a["name"]] for a in config.raw["agents"]})
    shown = {}
    for view, flags in views.items():
        assert main(["audit", "--trace", str(trace), *flags]) == 0
        shown[view] = capsys.readouterr().out
    pairs = tmp_path / "pairs.jsonl"
    assert main(["audit", "--trace", str(trace), "--extract-pairs", str(pairs)]) == 0
    shown[f"{stem}.pairs.jsonl"] = pairs.read_text(encoding="utf-8")
    expected = {path.name: path.read_text(encoding="utf-8") for path in AUDIT_VIEWS.glob(f"{stem}.*")}
    assert shown == expected


class SlowReorderingModel(GenerativeModel):
    """Wraps a fixture's scripted model behind a delay that varies by question.

    Of the three questions, the first asked answers last and the last
    first, and the game master's state and observers questions answer
    after the component queries issued with them, so calls issued together
    come back in reverse order.  Prompts are logged in completion order.
    """

    DELAYS_MS = (
        ("What kind of situation", 9),
        ("What kind of person", 5),
        ("What is the state of the world", 7),
        ("Who observes this event", 7),
    )

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.finished: list[str] = []
        self._lock = threading.Lock()

    @property
    def backend_id(self):
        return self.inner.backend_id

    def _complete(self, prompt, max_chars):
        delay = next((ms for text, ms in self.DELAYS_MS if text in prompt), 1.5)
        time.sleep(delay / 1000)
        with self._lock:
            self.finished.append(prompt)
        return self.inner._complete(prompt, max_chars)


@pytest.mark.parametrize("name", SCRIPTED)
def test_fixtures_behind_a_slow_reordering_model_keep_their_pinned_traces(tmp_path, name):
    config = load_config(SCENARIOS / name)
    model = SlowReorderingModel(build_model(config))
    out = tmp_path / "trace.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        run_built_scenario(build(config, model=model), out=handle)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXTURE_TRACE_SHA256[name]
    report = replay(out)
    assert report.ok, report.detail
    records = read_trace(out).records
    recorded = [call.prompt for r in records for call in r.model_calls]
    assert sorted(recorded) == sorted(model.finished)
    assert recorded != model.finished  # calls issued together did overlap
    if name == "three_questions.json":
        # An update pass is out while the next player acts: some act call
        # finished before the previous record's update calls all had.
        finished_at = {prompt: i for i, prompt in enumerate(model.finished)}
        assert any(
            finished_at[after.model_calls[0].prompt]
            < max(finished_at[c.prompt] for c in before.model_calls if c.caller.startswith("component:"))
            for before, after in zip(records, records[1:])
        )


def test_a_scene_trigger_without_phones_keeps_its_trace_and_ask_ahead_behind_a_slow_model(tmp_path):
    # A scene_trigger is no phone setting: three_questions with one added has
    # no phones, so its trigger can only note, and nothing charges the clock
    # mid-turn, so the next player's act call is still asked ahead.
    raw = copy.deepcopy(load_config(SCENARIOS / "three_questions.json").raw)
    raw["gm"].setdefault("components", []).append({"type": "scene_trigger"})
    config = config_from_dict(raw, SCENARIOS)
    built = build(config)
    assert built.gm.phones is None
    serial = io.StringIO()
    run_built_scenario(built, out=serial)
    model = SlowReorderingModel(build_model(config))
    out = tmp_path / "trace.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        run_built_scenario(build(config, model=model), out=handle)
    assert out.read_bytes() == serial.getvalue().encode("utf-8")
    report = replay(out)
    assert report.ok, report.detail
    # Some act call finished before the previous record's observers call.
    records = read_trace(out).records
    assert all(any(c.caller == "phone:detect" for c in r.model_calls) for r in records)
    finished_at = {prompt: i for i, prompt in enumerate(model.finished)}

    def finished(record, caller):
        return next(finished_at[c.prompt] for c in record.model_calls if c.caller.endswith(caller))

    assert any(
        finished(after, ":act") < finished(before, "gm:resolve:observers")
        for before, after in zip(records, records[1:])
    )


def cyberball_stand_in() -> ScriptedModel:
    """Scripted answers for cyberball.json, which ships for an HTTP model.

    Ava and Ben pass only to each other.  On the third round Caleb walks
    off, the event says the game ended, and the phrase terminator stops
    the episode.  In the questionnaire Caleb reports exclusion; Ben's first
    belonging answer fits no option, so the choice repair prompt runs.
    """
    rules = [
        ScriptRule(contains="What does Ava do next", response="throws the ball to Ben"),
        ScriptRule(contains="What does Ben do next", response="throws the ball to Ava"),
        ScriptRule(contains="What does Caleb do next? It is 2024-04-02T15:04", response="leaves the park"),
        ScriptRule(contains="What does Caleb do next", response="waves for the ball"),
        ScriptRule(contains="Caleb: leaves the park\nRelevant state", response="Caleb walked off, and the game ended."),
        ScriptRule(contains_all=("What event results", "by Ava:"), response="Ava threw the ball to Ben."),
        ScriptRule(contains_all=("What event results", "by Ben:"), response="Ben threw the ball to Ava."),
        ScriptRule(contains="What event results", response="Caleb waved, but nobody threw to him."),
        ScriptRule(contains="Who observes this event", response="Ava: the throw\nBen: the throw\nCaleb: the throw"),
        ScriptRule(contains="Caleb felt ignored", response="strongly agree"),
        ScriptRule(contains="felt ignored", response="disagree"),
        ScriptRule(contains_all=("Ben felt like they belonged", "verbatim"), response="agree"),
        ScriptRule(contains="Ben felt like they belonged", response="it depends"),
        ScriptRule(contains="Caleb felt like they belonged", response="strongly disagree"),
        ScriptRule(contains="felt like they belonged", response="agree"),
        ScriptRule(contains="control did Caleb", response="maybe 2"),
        ScriptRule(contains="control did", response="7 out of 10"),
    ]
    return ScriptedModel(rules=rules, default_response="The park is quiet.")


def test_cyberball_behind_a_scripted_stand_in_ends_and_replays(tmp_path):
    config = load_config(SCENARIOS / "cyberball.json")
    built = build(config, model=cyberball_stand_in())
    out = tmp_path / "trace.jsonl"
    records = []
    with open(out, "w", encoding="utf-8") as handle:
        outcome = run_built_scenario(built, out=handle, on_record=records.append)
    assert outcome.result.reason == "component-terminated"
    turns = [r for r in records if r.kind == "turn"]
    assert turns[-1].event == "Caleb walked off, and the game ended."
    assert {r.step for r in turns} == {0, 1, 2}
    questionnaires = [r for r in records if r.kind == "questionnaire"]
    answers = {
        name: [r.action.text for r in questionnaires if r.actor == name] for name in ("Ava", "Ben", "Caleb")
    }
    assert answers == {
        "Ava": ["disagree", "agree", "7"],
        "Ben": ["disagree", "agree", "7"],
        "Caleb": ["strongly agree", "strongly disagree", "2"],
    }
    ben_belonging = next(
        r for r in questionnaires if r.actor == "Ben" and "belonged" in r.model_calls[0].prompt
    )
    assert [c.response for c in ben_belonging.model_calls] == ["it depends", "agree"]
    report = replay(out)
    assert report.ok, report.detail
    assert report.records_checked == len(records)


def test_a_dropped_scenario_holds_no_reference_cycle(tmp_path):
    # Together these runs cover the inventory, the phone scene trigger,
    # three-questions agents, questionnaires, the phrase terminator and a
    # repaired choice.  Nothing they leave behind should need the cyclic
    # collector: dropping a scenario frees it at once.
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name in SCRIPTED + ["cyberball.json"]:
            model = cyberball_stand_in() if name == "cyberball.json" else None
            out = tmp_path / f"{name}.jsonl"
            with open(out, "w", encoding="utf-8") as handle:
                run_built_scenario(build(load_config(SCENARIOS / name), model=model), out=handle)
            assert replay(out).ok
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == {name: 0 for name in left}

from __future__ import annotations

import io
import json
from datetime import datetime
from pathlib import Path

import pytest

from gabm import config as config_mod
from gabm import trace as trace_mod
from gabm.config import build, config_from_dict, load_config
from gabm.errors import SimulationError
from gabm.kernel import canonical_json
from gabm.model import EchoModel, ScriptedModel
from gabm.trace import (
    TraceHeader,
    TraceWriter,
    extract_pairs,
    filter_records,
    make_header,
    read_trace,
    render_report,
    replay,
    run_built_scenario,
    summarize,
)

SCRIPT = {
    "default": "pass",
    "rules": [
        {"contains": "What would Alice", "response": "offers to buy beans"},
        {"contains": "What would Bob", "response": "sells a bean"},
        {"contains": "extract any completed trade", "response": "NONE"},
        {"contains": "What is the state of the world", "response": "A quiet market."},
        {"contains": "What event results", "response": "They chatted about beans."},
        {"contains": "Who observes", "response": "NONE"},
        {"contains": "How was the market", "response": "fine, thanks"},
    ],
}

CONFIG = {
    "seed": 5,
    "max_steps": 2,
    "clock": {"start": "2024-05-01T09:00", "step_minutes": 30, "mode": "round"},
    "model": {"kind": "scripted"},
    "script": "script.json",
    "agents": [
        {
            "name": "Alice",
            "components": [{"type": "constant", "name": "goal", "text": "buy beans"}],
        },
        {"name": "Bob"},
    ],
    "gm": {
        "components": [
            {"type": "inventory", "endowments": {"Alice": {"coin": 5}, "Bob": {"beans": 2}}}
        ]
    },
    "questionnaires": [
        {
            "name": "debrief",
            "administer_at_end": True,
            "questions": [{"call_to_action": "How was the market, {name}?"}],
        }
    ],
}


def write_scenario(tmp_path: Path) -> Path:
    (tmp_path / "script.json").write_text(json.dumps(SCRIPT), encoding="utf-8")
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return config_path


def run_to_file(tmp_path: Path, name: str = "trace.jsonl") -> Path:
    config = load_config(write_scenario(tmp_path))
    built = build(config)
    out = tmp_path / name
    with open(out, "w", encoding="utf-8") as handle:
        run_built_scenario(built, out=handle)
    return out


def test_run_writes_header_then_records(tmp_path):
    out = run_to_file(tmp_path)
    read = read_trace(out)
    assert read.errors == []
    assert read.header is not None
    assert read.header.seed == 5
    assert read.header.max_steps == 2
    assert read.header.config == CONFIG
    # 2 rounds x 2 players, then the end-of-run questionnaire per player.
    assert [r.kind for r in read.records] == ["turn"] * 4 + ["questionnaire"] * 2
    assert {r.actor for r in read.records[4:]} == {"Alice", "Bob"}
    assert all(r.event == "They chatted about beans." for r in read.records[:4])


def test_a_questionnaire_without_the_flag_runs_at_the_end(tmp_path):
    # An absent administer_at_end used to build a questionnaire that never ran.
    (tmp_path / "script.json").write_text(json.dumps(SCRIPT), encoding="utf-8")
    raw = json.loads(json.dumps(CONFIG))
    del raw["questionnaires"][0]["administer_at_end"]
    outcome = run_built_scenario(build(config_from_dict(raw, tmp_path)))
    records = outcome.result.trace
    assert [r.kind for r in records] == ["turn"] * 4 + ["questionnaire"] * 2
    assert [r.action.text for r in records[4:]] == ["fine, thanks"] * 2


def test_trace_lines_are_canonical_json(tmp_path):
    out = run_to_file(tmp_path)
    for line in out.read_text(encoding="utf-8").splitlines():
        assert line == canonical_json(json.loads(line))


def test_identical_runs_are_byte_identical(tmp_path):
    first = run_to_file(tmp_path, "one.jsonl")
    second = run_to_file(tmp_path, "two.jsonl")
    assert first.read_bytes() == second.read_bytes()


def test_header_reflects_overrides(tmp_path):
    config = load_config(write_scenario(tmp_path))
    built = build(config, seed_override=11, max_steps_override=1)
    header = make_header(built)
    assert header.seed == 11
    assert header.max_steps == 1
    assert header.config_hash == config.config_hash()


def test_corrupt_lines_reported_with_numbers(tmp_path):
    out = run_to_file(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[2] = '{"truncated'
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read = read_trace(out)
    assert len(read.records) == 5
    assert len(read.errors) == 1
    assert read.errors[0][0] == 3  # 1-based line number
    with pytest.raises(SimulationError):
        read_trace(out, strict=True)


def test_bad_header_reported(tmp_path):
    out = tmp_path / "trace.jsonl"
    out.write_text("not json\n", encoding="utf-8")
    read = read_trace(out)
    assert read.header is None
    assert read.errors and read.errors[0][0] == 1


def test_filter_records_by_agent_step_and_text(tmp_path):
    out = run_to_file(tmp_path)
    records = read_trace(out).records
    alice = filter_records(records, agent="Alice")
    assert {r.actor for r in alice} == {"Alice"}
    assert len(alice) == 3  # two turns and one questionnaire
    first_round = filter_records(records, step_range=(0, 0))
    assert len(first_round) == 2
    hits = filter_records(records, search="sells a bean")
    assert len(hits) == 2
    assert all(r.actor == "Bob" and r.kind == "turn" for r in hits)
    assert filter_records(records, agent="Alice", search="sells a bean") == []


def test_extract_pairs_shape(tmp_path):
    out = run_to_file(tmp_path)
    records = read_trace(out).records
    pairs = extract_pairs(filter_records(records, agent="Alice", step_range=(0, 1)))
    assert len(pairs) == 2
    assert pairs[0]["actor"] == "Alice"
    assert pairs[0]["action"] == "offers to buy beans"
    assert pairs[0]["states"]["goal"] == "buy beans"


def test_render_report_mentions_the_flow(tmp_path):
    out = run_to_file(tmp_path)
    records = read_trace(out).records
    report = render_report(records[:2])
    assert "action: " in report
    assert "event: They chatted about beans." in report
    assert "observed by " in report  # inventory partial states
    assert "step 0" in report


def test_summarize_lists_termination_and_grounded(tmp_path):
    config = load_config(write_scenario(tmp_path))
    built = build(config)
    outcome = run_built_scenario(built)
    text = summarize(outcome)
    assert "records: 6" in text
    assert "termination: max-steps" in text
    assert "grounded inventory:" in text
    assert "Alice has 0.00 beans, 5.00 coin." in text


def test_questionnaires_skipped_after_error(tmp_path):
    (tmp_path / "script.json").write_text(
        json.dumps({"default": ""}), encoding="utf-8"  # empty answers abort the act
    )
    raw = json.loads(json.dumps(CONFIG))
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    built = build(load_config(config_path))
    outcome = run_built_scenario(built)
    assert outcome.result.reason == "error"
    assert all(r.kind == "turn" for r in outcome.result.trace)


def test_replay_verifies_byte_equality(tmp_path):
    out = run_to_file(tmp_path)
    report = replay(out)
    assert report.ok
    assert report.records_checked == 6
    assert report.divergence_step is None


def test_replay_detects_a_tampered_record(tmp_path):
    out = run_to_file(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])  # third record, second round
    assert record["step"] == 1
    record["event"] = "Somebody rewrote history."
    lines[3] = canonical_json(record)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = replay(out)
    assert not report.ok
    assert report.divergence_step == 1
    assert report.records_checked == 2


def test_replay_detects_header_hash_mismatch(tmp_path):
    out = run_to_file(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["config"]["seed"] = 999  # config edited, hash left stale
    lines[0] = canonical_json(header)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = replay(out)
    assert not report.ok
    assert report.divergence_step is None
    assert "hash mismatch" in report.detail


def test_replay_runs_without_the_script_file(tmp_path):
    # The recorded calls stand in for the model, so a moved trace replays.
    out = run_to_file(tmp_path)
    (tmp_path / "script.json").unlink()
    report = replay(out)
    assert report.ok


def test_run_without_sink_still_counts_records(tmp_path):
    built = build(load_config(write_scenario(tmp_path)))
    seen = []
    outcome = run_built_scenario(built, on_record=seen.append)
    assert outcome.records_written == 6
    assert len(seen) == 6
    assert built.gm.on_record is None  # detached afterwards


SCENARIOS = Path(config_mod.__file__).parent / "scenarios"


def shipped_and_non_ascii_configs(tmp_path: Path) -> list:
    configs = [load_config(path) for path in sorted(SCENARIOS.glob("*.json")) if not path.name.endswith("_script.json")]
    raw = json.loads(json.dumps(CONFIG))
    raw["agents"][0]["initial_memories"] = ["Zoë paid 5 € for the naïve café's crème brûlée ☕", "😀 — “quoted”"]
    configs.append(config_from_dict(raw, base_dir=tmp_path))
    return configs


def test_the_written_header_line_is_the_canonical_json_of_the_header(tmp_path):
    # The writer splices the config's canonical text into the header line;
    # the line must be the one canonical_json gives for the whole header.
    (tmp_path / "script.json").write_text(json.dumps(SCRIPT), encoding="utf-8")
    configs = shipped_and_non_ascii_configs(tmp_path)
    assert len(configs) >= 6
    for config in configs:
        built = build(config, model=EchoModel(), max_steps_override=1)
        buffer = io.StringIO()
        header = make_header(built)
        TraceWriter(buffer, header)
        line = buffer.getvalue()
        assert line == canonical_json(header.to_dict()) + "\n"
        assert line == header.to_json_line() + "\n"
        assert TraceHeader.from_dict(json.loads(line)).to_json_line() + "\n" == line


def test_a_run_and_a_replay_each_encode_the_config_once(tmp_path, monkeypatch):
    encoded = []
    real = config_mod.canonical_json

    def counting(obj):
        if isinstance(obj, dict) and "agents" in obj:
            encoded.append(obj)
        return real(obj)

    monkeypatch.setattr(config_mod, "canonical_json", counting)
    monkeypatch.setattr(trace_mod, "canonical_json", counting)
    out = run_to_file(tmp_path)
    assert len(encoded) == 1
    encoded.clear()
    assert replay(out).ok
    assert len(encoded) == 1


class SurrogateScript(ScriptedModel):
    """The test script's answers, each with a lone surrogate appended."""

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        return super()._complete(prompt, max_chars) + " \ud800"


def test_a_run_whose_model_answers_a_lone_surrogate_goes_on_and_replays(tmp_path):
    config = load_config(write_scenario(tmp_path))
    model = SurrogateScript.from_dict(SCRIPT)
    out = tmp_path / "trace.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        outcome = run_built_scenario(build(config, model=model), out=handle)
    assert outcome.result.reason == "max-steps"
    records = read_trace(out, strict=True).records
    assert records[0].event == "They chatted about beans. \ufffd"
    assert replay(out).ok

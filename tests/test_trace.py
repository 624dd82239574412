from __future__ import annotations

import io
import json
from datetime import datetime
from pathlib import Path

import pytest

from gabm import config as config_mod
from gabm import trace as trace_mod
from gabm.config import build, config_from_dict, load_config
from gabm.errors import BackendUnavailable, SimulationError
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
    assert [r.action.text for r in read.records[4:]] == ["fine, thanks"] * 2
    assert all(r.event == "They chatted about beans." for r in read.records[:4])


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


def test_a_line_that_is_not_utf8_is_one_corrupt_line(tmp_path):
    out = run_to_file(tmp_path)
    lines = out.read_bytes().split(b"\n")
    # The bad byte lands in the event and in the recorded answer that
    # replay feeds back, so the regenerated line repeats it.
    lines[3] = lines[3].replace(b"They chatted", b"They chatt\xffed")
    out.write_bytes(b"\n".join(lines))
    read = read_trace(out)
    assert len(read.records) == 5
    reason = "'utf-8' codec can't decode byte 0xff in position"
    [(line_no, message)] = read.errors
    assert line_no == 4 and message.startswith(reason)
    with pytest.raises(SimulationError, match=f"^bad trace record on line 4: {reason}"):
        read_trace(out, strict=True)
    with pytest.raises(SimulationError, match=f"^bad trace record on line 4: {reason}"):
        replay(out)


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


def test_search_reads_the_act_prompt_and_no_other_call(tmp_path):
    records = read_trace(run_to_file(tmp_path)).records
    hits = filter_records(records, search="What would Alice do next")
    assert [(r.kind, r.step) for r in hits] == [("turn", 0), ("turn", 1)]
    assert filter_records(records, search="How was the market") == [
        r for r in records if r.kind == "questionnaire"
    ]
    # The game master's questions are model calls too, but not act calls.
    assert filter_records(records, search="What is the state of the world") == []


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


class QuestionnaireOutage(ScriptedModel):
    """SCRIPT's model, whose backend is gone by the time a question is asked."""

    def __init__(self):
        script = ScriptedModel.from_dict(SCRIPT)
        super().__init__(rules=script.rules, default_response=script.default_response)

    def _complete(self, prompt, max_chars):
        if "How was the market" in prompt:
            raise BackendUnavailable("endpoint went away")
        return super()._complete(prompt, max_chars)


def test_a_questionnaire_the_backend_fails_ends_the_run_in_error(tmp_path):
    built = build(load_config(write_scenario(tmp_path)), model=QuestionnaireOutage())
    out = io.StringIO()
    outcome = run_built_scenario(built, out=out)
    result = outcome.result
    assert (result.reason, result.error) == ("error", "endpoint went away")
    assert result.grounded["inventory"].startswith("Alice has 0.00 beans, 5.00 coin.")
    # Every turn, then Alice's unanswered question: its record is finished
    # as the failure leaves it, and Bob is never asked.
    lines = out.getvalue().splitlines()
    assert lines[0] == make_header(built).to_json_line()
    assert lines[1:] == [record.to_json_line() for record in result.trace]
    assert [r.kind for r in result.trace] == ["turn"] * 4 + ["questionnaire"]
    assert (result.trace[-1].actor, result.trace[-1].action) == ("Alice", None)
    assert outcome.records_written == 5


def test_a_trace_that_ended_on_a_raised_call_replays(tmp_path):
    # The failed call is recorded nowhere; replay runs out of recorded
    # calls at the same ask, and its backend fails there too.
    built = build(load_config(write_scenario(tmp_path)), model=QuestionnaireOutage())
    out = tmp_path / "trace.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        assert run_built_scenario(built, out=handle).result.reason == "error"
    report = replay(out)
    assert report.ok, report.detail
    assert report.records_checked == 5
    # Without its last record, the recorded calls run out one record
    # early, and the regenerated run holds one record more.
    lines = out.read_text(encoding="utf-8").splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    report = replay(out)
    assert not report.ok
    assert report.detail == "length mismatch: recorded 4 records, regenerated 5"


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
        # A header read back has no config text, so the writer encodes it.
        again = io.StringIO()
        TraceWriter(again, TraceHeader.from_dict(json.loads(line)))
        assert again.getvalue() == line


def test_a_run_and_a_replay_each_encode_the_config_once(tmp_path, monkeypatch):
    encoded = []
    real_walk, real_c = config_mod.canonical_config_json, trace_mod.canonical_json

    def counting(real):
        def encode(obj):
            if isinstance(obj, dict) and "agents" in obj:
                encoded.append(obj)
            return real(obj)
        return encode

    monkeypatch.setattr(config_mod, "canonical_config_json", counting(real_walk))
    monkeypatch.setattr(trace_mod, "canonical_json", counting(real_c))
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


def test_a_run_before_the_year_1000_writes_four_digit_years_and_replays(tmp_path):
    # Some C libraries write year 999 as "999", which no timestamp parser
    # here reads back; every year is zero-padded instead.
    raw = json.loads(json.dumps(CONFIG))
    raw["clock"]["start"] = "0999-12-31T23:00"
    (tmp_path / "script.json").write_text(json.dumps(SCRIPT), encoding="utf-8")
    out = tmp_path / "trace.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        run_built_scenario(build(config_from_dict(raw, base_dir=tmp_path)), out=handle)
    records = read_trace(out, strict=True).records
    assert json.loads(out.read_text(encoding="utf-8").splitlines()[1])["time"] == "0999-12-31T23:00"
    assert records[-1].timestamp == datetime(1000, 1, 1, 0, 0)
    assert replay(out) == trace_mod.ReplayReport(ok=True, records_checked=6)


# ---- replay equivalence ------------------------------------------------------
#
# Replay reads only the header, the record lines and their model calls, and
# re-reads the trace strictly for any outcome but OK.  Each case below edits
# the lines of the magic_beans fixture trace (a header and 6 records, steps
# 0 0 0 1 1 1) in place; the expected outcome is the report or exception of
# the replay that built every record before it ran, pinned from it.  Where
# that is a JSON decoding error, it is built from the edited lines, so the
# pin holds whatever column the decoder stops at.

MAGIC_BEANS = SCENARIOS / "magic_beans.json"


def _record(index: int, change):
    """Apply ``change`` to the parsed line ``index`` (0 is the header)."""

    def edit(lines: list[str]) -> None:
        record = json.loads(lines[index])
        change(record)
        lines[index] = canonical_json(record)

    return edit


def _set(key, value):
    return lambda record: record.update({key: value})


def _both(*edits):
    return lambda lines: [edit(lines) for edit in edits]


def _response(index: int, value):
    return _record(index, lambda r: r["model_calls"][0].update(response=value))


def _wrong(line: int, field: str, value, kind: str = "str") -> str:
    return f"SimulationError: bad trace record on line {line}: {field} must be {kind}, got {value!r}"


def _not_json(line: int):
    """The expected outcome for edited lines whose line ``line`` is not JSON:
    the strict read's error, with the decoder's own text for that line."""

    def expected(lines: list[str]) -> str:
        with pytest.raises(json.JSONDecodeError) as decoding:
            json.loads(lines[line - 1])
        return f"SimulationError: bad trace record on line {line}: {decoding.value}"

    return expected


STALE_HASH = _record(0, lambda h: h["config"].update(seed=999))
OLD_ENGINE = _record(0, _set("engine_version", "0.1.0"))
BAD_SEED = _record(0, _set("seed", -1))
DIFFERS = (False, 1, 0, "record 1 differs")

REPLAY_CASES = {
    "unchanged": (lambda lines: None, (True, 6, None, "")),
    "retype step": (_record(1, _set("step", "x")), _wrong(2, "step", "x", "int")),
    "retype turn": (_record(1, _set("turn", True)), _wrong(2, "turn", True, "int")),
    "retype event": (_record(1, _set("event", 7)), _wrong(2, "event", 7)),
    "retype response": (_response(1, 5), _wrong(2, "response", 5)),
    "retype recipients": (
        _record(1, lambda r: r["observations"][0].update(recipients="Alice")),
        "SimulationError: bad trace record on line 2: "
        "observation recipients must be a non-empty list, got 'Alice'",
    ),
    "retype notes": (
        _record(1, _set("notes", "n")),
        "SimulationError: bad trace record on line 2: notes must be a list of strings, got 'n'",
    ),
    "retype observation": (
        _record(1, lambda r: r["observations"][0].update(text=7)),
        _wrong(2, "observation text", 7),
    ),
    "retype action": (_record(1, lambda r: r["action"].update(text=7)), _wrong(2, "action text", 7)),
    "retype state": (
        _record(1, lambda r: r["agent_states"].update(Alice=7)),
        "SimulationError: bad trace record on line 2: agent_states must map names to strings, got "
        "{'Alice': 7, 'goal': 'Bob sells magic beans from his stall.', 'recent observations': ''}",
    ),
    "retype a later record": (_response(4, 5), _wrong(5, "response", 5)),
    "truncated line": (lambda ls: ls.__setitem__(3, ls[3][: len(ls[3]) // 2]), _not_json(4)),
    "truncated last line": (lambda ls: ls.__setitem__(6, ls[6][:-1]), _not_json(7)),
    "header not JSON": (
        lambda ls: ls.__setitem__(0, "garbage"),
        "SimulationError: bad trace header: Expecting value: line 1 column 1 (char 0)",
    ),
    "blank line inserted": (lambda ls: ls.insert(3, ""), (True, 6, None, "")),
    "blank line before the header": (
        lambda ls: ls.insert(0, ""),
        "SimulationError: bad trace record on line 2: 'kind'",
    ),
    "trailing space": (lambda ls: ls.__setitem__(2, ls[2] + " "), DIFFERS),
    "CRLF line endings": (
        lambda ls: ls.__setitem__(slice(None), [line + "\r" for line in ls]),
        (True, 6, None, ""),
    ),
    "unknown field": (_record(2, _set("extra", 1)), DIFFERS),
    "records swapped": (lambda ls: ls.__setitem__(slice(2, 4), [ls[3], ls[2]]), DIFFERS),
    "record dropped": (lambda ls: ls.pop(4), (False, 3, 1, "record 3 differs")),
    "record duplicated": (lambda ls: ls.insert(2, ls[2]), (False, 2, 0, "record 2 differs")),
    "last record duplicated": (
        lambda ls: ls.append(ls[6]),
        (False, 6, 1, "length mismatch: recorded 7 records, regenerated 6"),
    ),
    "every record dropped": (
        lambda ls: ls.__delitem__(slice(1, None)),
        (False, 0, 0, "length mismatch: recorded 0 records, regenerated 1"),
    ),
    "event edited": (
        _record(3, _set("event", "Somebody rewrote history.")),
        (False, 2, 0, "record 2 differs"),
    ),
    "response edited": (_response(2, "Carol leaves."), DIFFERS),
    "engine_version": (
        OLD_ENGINE,
        (False, 0, None, f"header engine_version must be {config_mod.ENGINE_VERSION!r}, got '0.1.0'"),
    ),
    "config hash": (STALE_HASH, (False, 0, None, "config hash mismatch in header")),
    "header seed": (
        BAD_SEED,
        (False, 0, None, "header seed must be an integer in [0, 2^64), got -1"),
    ),
}
# A retyped model call fails the model-call read itself; a retyped step is
# found only by the strict read, after the header check or the run.  A
# header of another engine version is reported ahead of either: no record
# of it is read.
for retype, edit, error in (
    ("response", _response(4, 5), _wrong(5, "response", 5)),
    ("step", _record(4, _set("step", "x")), _wrong(5, "step", "x", "int")),
):
    for problem, other in (
        ("config hash", STALE_HASH),
        ("header seed", BAD_SEED),
        ("event edited", _record(2, _set("event", "Somebody rewrote history."))),
    ):
        REPLAY_CASES[f"retype {retype} and {problem}"] = (_both(edit, other), error)
    REPLAY_CASES[f"retype {retype} and engine_version"] = (
        _both(edit, OLD_ENGINE),
        REPLAY_CASES["engine_version"][1],
    )


@pytest.fixture(scope="module")
def magic_beans_lines() -> list[str]:
    out = io.StringIO()
    run_built_scenario(build(load_config(MAGIC_BEANS)), out=out)
    return out.getvalue().splitlines()


def replay_outcome(path: Path):
    """A replay's report fields, or its exception's type and text."""
    try:
        report = replay(path)
    except Exception as exc:  # the exception is the outcome under test
        return f"{type(exc).__name__}: {exc}"
    return (report.ok, report.records_checked, report.divergence_step, report.detail)


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_replay_gives_the_outcome_of_a_full_read(tmp_path, magic_beans_lines, case):
    edit, expected = REPLAY_CASES[case]
    lines = list(magic_beans_lines)
    edit(lines)
    if callable(expected):
        expected = expected(lines)
    path = tmp_path / "trace.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert replay_outcome(path) == expected

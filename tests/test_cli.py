from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import gabm.config
from gabm.cli import main
from gabm.config import build, load_config
from gabm.game_master import OBSERVERS_QUESTION, STATE_QUESTION
from gabm.kernel import canonical_json
from gabm.phone import DETECT_PHONE_QUESTION
from gabm.trace import replay, run_built_scenario

from test_game_master import POST_EXTRACT, PRE_EXTRACT, BatchModel
from test_trace import CONFIG, SCRIPT, QuestionnaireOutage, write_scenario

ENGINE = gabm.config.ENGINE_VERSION


def run_trace(tmp_path: Path) -> tuple[Path, Path]:
    config_path = write_scenario(tmp_path)
    out = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    return config_path, out


def test_run_prints_summary_and_trace_path(tmp_path, capsys):
    _, out = run_trace(tmp_path)
    printed = capsys.readouterr().out
    assert "records: 6" in printed
    assert "termination: max-steps" in printed
    assert f"trace: {out} (6 records)" in printed
    assert out.exists()


def test_run_honors_seed_and_step_overrides(tmp_path, capsys):
    config_path = write_scenario(tmp_path)
    out = tmp_path / "short.jsonl"
    code = main(
        ["run", "--config", str(config_path), "--out", str(out),
         "--seed", "9", "--max-steps", "1"]
    )
    assert code == 0
    header = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert header["seed"] == 9
    assert header["max_steps"] == 1
    assert "records: 4" in capsys.readouterr().out  # 1 round + 2 questionnaires


@pytest.mark.parametrize(
    "flag,value,message",
    [
        pytest.param("--max-steps", "0", "--max-steps must be a positive integer", id="max-steps 0"),
        pytest.param("--max-steps", "-3", "--max-steps must be a positive integer", id="max-steps -3"),
        pytest.param("--seed", "-1", "--seed must be an integer in [0, 2^64)", id="seed -1"),
    ],
)
def test_run_rejects_an_override_the_config_could_not_hold(tmp_path, capsys, flag, value, message):
    config_path = write_scenario(tmp_path)
    out = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(config_path), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_run_reports_an_unwritable_trace_path_before_building(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built a scenario whose trace cannot be written")

    monkeypatch.setattr(gabm.config, "build", no_build)
    config_path = write_scenario(tmp_path)
    out = tmp_path / "missing" / "trace.jsonl"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write trace:") and err.count("\n") == 1


def test_run_rejects_invalid_config(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"seed": "seven", "agents": []}), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "seed" in err


def test_run_reports_missing_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "nope.json" in capsys.readouterr().err


BAD_SCRIPTS = {
    "missing": None,
    "not json": "{rules: [",
    "top-level list": json.dumps([{"contains": "x", "response": "y"}]),
    "rule without response": json.dumps({"rules": [{"contains": "x"}]}),
    "contains and pattern": json.dumps({"rules": [{"contains": "x", "pattern": "y", "response": "z"}]}),
    "bad pattern": json.dumps({"rules": [{"pattern": "[", "response": "z"}]}),
    "number response": json.dumps({"rules": [{"contains": "x", "response": 5}]}),
    "text max_uses": json.dumps({"rules": [{"contains": "x", "response": "z", "max_uses": "3"}]}),
    # A string once became one-letter pieces; an empty list matched every prompt.
    "text contains_all": json.dumps({"rules": [{"contains_all": "zq", "response": "hit"}]}),
    "empty contains_all": json.dumps({"rules": [{"contains_all": [], "response": "hit"}]}),
    "number default": json.dumps({"rules": [], "default": 5}),
    "null default": json.dumps({"rules": [], "default": None}),
    "lone surrogate response": json.dumps({"rules": [{"contains": "x", "response": "ok \ud800"}]}),
    "lone surrogate default": json.dumps({"rules": [], "default": "pass \udfff"}),
}


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("case", list(BAD_SCRIPTS))
def test_run_reports_a_malformed_script_file_in_one_line(tmp_path, capsys, case, via_config):
    config_path = write_scenario(tmp_path)
    script = tmp_path / "bad_script.json"
    if BAD_SCRIPTS[case] is not None:
        script.write_text(BAD_SCRIPTS[case], encoding="utf-8")
    args = ["run", "--config", str(config_path)]
    if via_config:
        config_path.write_text(json.dumps({**CONFIG, "script": script.name}), encoding="utf-8")
    else:
        args += ["--script", str(script)]
    assert main(args) == 1
    err = capsys.readouterr().err
    if via_config and case == "missing":
        # The validator checks that a config's script file exists.
        assert "script file not found: bad_script.json" in err
    else:
        assert err.startswith(f"cannot build scenario: script file {script}: ")
        assert err.count("\n") == 1


def test_a_failed_build_leaves_no_trace_file(tmp_path, capsys):
    config_path = write_scenario(tmp_path)
    script = tmp_path / "no_response.json"
    script.write_text(json.dumps({"rules": [{"contains": "anything"}]}), encoding="utf-8")
    out = tmp_path / "trace.jsonl"
    args = ["run", "--config", str(config_path), "--script", str(script), "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot build scenario: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_exits_two_on_aborted_episode(tmp_path, capsys):
    (tmp_path / "script.json").write_text(json.dumps({"default": ""}), encoding="utf-8")
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 2
    assert "episode aborted:" in capsys.readouterr().err


def test_run_exits_two_when_the_backend_fails_in_a_questionnaire(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gabm.config, "build_model", lambda config, script_override=None: QuestionnaireOutage())
    out = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(write_scenario(tmp_path)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "episode aborted: endpoint went away\n"
    assert f"trace: {out} (5 records)" in captured.out
    assert len(out.read_text(encoding="utf-8").splitlines()) == 6  # the header and 5 records


def test_a_run_the_backend_failed_exits_two_and_then_replays(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gabm.config, "build_model", lambda config, script_override=None: QuestionnaireOutage())
    out = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(write_scenario(tmp_path)), "--out", str(out)]) == 2
    capsys.readouterr()
    assert main(["replay", "--trace", str(out)]) == 0
    assert "replay OK (5 records byte-identical)" in capsys.readouterr().out


def test_validate_config_ok(tmp_path, capsys):
    config_path = write_scenario(tmp_path)
    assert main(["validate-config", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.strip() == "ok: seed=5 max_steps=2 agents=[Alice, Bob]"


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_a_config_string_utf8_cannot_write_is_reported_not_run(tmp_path, capsys, command):
    # A JSON "\ud800" escape in an initial memory: validate-config used to
    # print ok, and run failed with a traceback, leaving an empty trace.
    config_path = write_scenario(tmp_path)
    raw = json.loads(json.dumps(CONFIG))
    raw["agents"][1]["initial_memories"] = ["Bob keeps bees.", "\ud800 odd"]
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    assert "\\ud800 odd" in config_path.read_text(encoding="utf-8")
    out = tmp_path / "trace.jsonl"
    flags = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", str(config_path), *flags]) == 1
    err = capsys.readouterr().err
    assert "MalformedField at agents[1].initial_memories[1]: holds a lone surrogate" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_validate_config_lists_every_issue(tmp_path, capsys):
    raw = json.loads(json.dumps(CONFIG))
    raw["agents"][0]["name"] = ""
    raw["max_steps"] = 0
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    (tmp_path / "script.json").write_text(json.dumps(SCRIPT), encoding="utf-8")
    assert main(["validate-config", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "agents[0].name" in err
    assert "max_steps" in err
    assert "gm.components[0].endowments.Alice" in err  # orphaned by the blank name


def test_audit_renders_filtered_records(tmp_path, capsys):
    _, out = run_trace(tmp_path)
    capsys.readouterr()
    code = main(["audit", "--trace", str(out), "--agent", "Bob", "--steps", "0:1",
                 "--search", "sells a bean"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "action: sells a bean" in printed
    assert "2 record(s) shown, 0 corrupt line(s) skipped" in printed
    assert "Alice" not in printed.replace("observed by Alice", "")


def test_audit_reports_corrupt_lines(tmp_path, capsys):
    _, out = run_trace(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[4] = "garbage"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["audit", "--trace", str(out)]) == 0
    captured = capsys.readouterr()
    assert "line 5: corrupt record" in captured.err
    assert "5 record(s) shown, 1 corrupt line(s) skipped" in captured.out


def retype_first_record(out: Path, change) -> None:
    """Apply ``change`` to the parsed first record of a trace and write it back."""
    lines = out.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    change(record)
    lines[1] = canonical_json(record)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "change, flags",
    [
        pytest.param(lambda r: r.update(step="x"), ["--steps", "0:1"], id="step text"),
        pytest.param(lambda r: r.update(event=7), ["--search", "foo"], id="event number"),
        pytest.param(lambda r: r["model_calls"][0].update(response=5), [], id="response number"),
        pytest.param(lambda r: r["observations"][0].update(text=7), ["--search", "foo"], id="observation number"),
        pytest.param(lambda r: r["action"].update(text=7), ["--search", "foo"], id="action number"),
        pytest.param(lambda r: r["agent_states"].update(Alice=7), ["--agent", "Bob"], id="state number"),
    ],
)
def test_audit_skips_a_record_with_wrong_json_types_as_corrupt(tmp_path, capsys, change, flags):
    _, out = run_trace(tmp_path)
    retype_first_record(out, change)
    capsys.readouterr()
    assert main(["audit", "--trace", str(out), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("line 2: corrupt record (")
    assert "1 corrupt line(s) skipped" in captured.out


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(lambda r: r["model_calls"][0].update(response=5), "response must be str, got 5", id="response"),
        pytest.param(lambda r: r.update(step="x"), "step must be int, got 'x'", id="step"),
        pytest.param(lambda r: r.update(turn=True), "turn must be int, got True", id="turn"),
        pytest.param(lambda r: r.update(event=7), "event must be str, got 7", id="event"),
        pytest.param(
            lambda r: r["observations"][0].update(recipients=[1]),
            "observation recipient must be str, got 1",
            id="recipients",
        ),
        pytest.param(lambda r: r.update(notes="n"), "notes must be a list of strings, got 'n'", id="notes"),
    ],
)
def test_replay_rejects_a_record_with_wrong_json_types(tmp_path, capsys, change, message):
    _, out = run_trace(tmp_path)
    retype_first_record(out, change)
    capsys.readouterr()
    assert main(["replay", "--trace", str(out)]) == 1
    assert capsys.readouterr().err == f"cannot replay: bad trace record on line 2: {message}\n"


def test_audit_extract_pairs_writes_jsonl(tmp_path, capsys):
    _, out = run_trace(tmp_path)
    pairs_path = tmp_path / "pairs.jsonl"
    capsys.readouterr()
    code = main(["audit", "--trace", str(out), "--agent", "Alice",
                 "--extract-pairs", str(pairs_path)])
    assert code == 0
    assert f"wrote 3 record(s) worth of pairs to {pairs_path}" in capsys.readouterr().out
    rows = [json.loads(line) for line in pairs_path.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 3
    assert rows[0]["actor"] == "Alice"


def test_audit_rejects_a_malformed_step_range(tmp_path, capsys):
    _, out = run_trace(tmp_path)
    capsys.readouterr()
    assert main(["audit", "--trace", str(out), "--steps", "a:b"]) == 1
    assert capsys.readouterr().err == "--steps must be A:B with integer bounds, got 'a:b'\n"


def test_audit_reports_an_unwritable_pairs_path(tmp_path, capsys):
    _, out = run_trace(tmp_path)
    capsys.readouterr()
    pairs = tmp_path / "missing" / "pairs.jsonl"
    assert main(["audit", "--trace", str(out), "--extract-pairs", str(pairs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write pairs:") and err.count("\n") == 1


def test_audit_missing_trace(tmp_path, capsys):
    assert main(["audit", "--trace", str(tmp_path / "absent.jsonl")]) == 1
    assert "cannot read trace" in capsys.readouterr().err


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "command, code, out, err",
    [
        pytest.param(
            "audit",
            0,
            "\n0 record(s) shown, 1 corrupt line(s) skipped\n",
            f"line 1: corrupt record (bad header: {NOT_UTF8})\n",
            id="audit",
        ),
        pytest.param("replay", 1, "", f"cannot replay: bad trace header: {NOT_UTF8}\n", id="replay"),
    ],
)
def test_a_header_that_is_not_utf8_is_a_bad_header(tmp_path, capsys, command, code, out, err):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"\xff\xfe x\n")
    assert main([command, "--trace", str(path)]) == code
    assert capsys.readouterr() == (out, err)


def test_a_line_that_is_not_utf8_hides_no_other_record(tmp_path, capsys):
    out = tmp_path / "magic_beans.jsonl"
    config = Path(gabm.__file__).parent / "scenarios" / "magic_beans.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    with open(out, "ab") as handle:
        handle.write(b'{"event":"caf\xc3\n')
    capsys.readouterr()
    assert main(["audit", "--trace", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("6 record(s) shown, 1 corrupt line(s) skipped\n")
    assert captured.err.startswith("line 8: corrupt record ('utf-8' codec can't decode byte 0xc3")
    assert main(["replay", "--trace", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot replay: bad trace record on line 8: ") and err.count("\n") == 1


def test_replay_ok(tmp_path, capsys):
    _, out = run_trace(tmp_path)
    capsys.readouterr()
    assert main(["replay", "--trace", str(out)]) == 0
    assert "replay OK (6 records byte-identical)" in capsys.readouterr().out


def test_blank_gm_outcome_ends_in_error_and_replays(tmp_path, capsys):
    script = {
        "default": "pass",
        "rules": [
            {"contains": "extract any completed trade", "response": "NONE"},
            {"contains": "What event results", "response": "   "},
        ],
    }
    (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    outcome = run_built_scenario(build(load_config(config_path)))
    assert outcome.result.reason == "error"
    assert "game master gave no outcome" in outcome.result.error
    out = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert "episode aborted: game master gave no outcome" in capsys.readouterr().err
    report = replay(out)
    assert report.ok, report.detail
    assert report.records_checked == 1


def test_replay_rejects_an_embedded_config_with_an_unknown_field(tmp_path, capsys):
    # A trace written before every config object rejected unknown fields may
    # embed one; its config no longer validates, so it no longer replays.
    _, out = run_trace(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["config"]["clock"]["tick"] = 3
    config_bytes = canonical_json(header["config"]).encode("utf-8")
    header["config_hash"] = hashlib.sha256(config_bytes).hexdigest()
    lines[0] = canonical_json(header)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--trace", str(out)]) == 1
    err = capsys.readouterr().err
    assert "embedded config invalid" in err and "MalformedField at clock.tick: unknown field" in err


def test_replay_divergence_exit_code(tmp_path, capsys):
    _, out = run_trace(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    record["action"]["text"] = "did something else entirely"
    lines[2] = canonical_json(record)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--trace", str(out)]) == 3
    assert "replay DIVERGED at step 0" in capsys.readouterr().err


def test_replay_rejects_a_trace_without_a_header(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["replay", "--trace", str(empty)]) == 1
    assert capsys.readouterr().err == "replay failed: trace has no header\n"


@pytest.mark.parametrize("version", [None, "0.1.0"], ids=["null", "0.1.0"])
def test_replay_rejects_a_trace_from_another_engine_version(tmp_path, capsys, version):
    _, out = run_trace(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["engine_version"] = version
    lines[0] = canonical_json(header)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--trace", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"replay failed: header engine_version must be {ENGINE!r}, got {version!r}\n"
    )


def magic_beans_trace(tmp_path, flat: bool) -> tuple[Path, list[str]]:
    """A magic_beans trace and its lines; with ``flat``, each record's
    observations are rewritten as engine 0.2.0 wrote them, one entry per
    recipient with no recipients groups."""
    out = tmp_path / "magic_beans.jsonl"
    config = Path(gabm.__file__).parent / "scenarios" / "magic_beans.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        if flat:
            record["observations"] = [
                {"recipient": recipient, "text": group["text"], "time": group["time"]}
                for group in record["observations"]
                for recipient in group["recipients"]
            ]
        lines[i] = canonical_json(record)
    assert json.loads(lines[1])["observations"]
    return out, lines


def test_replay_names_the_engine_version_of_an_old_format_trace(tmp_path, capsys):
    # Read strictly, the first record with observations of a 0.2.0-format
    # trace is malformed; the header names the cause.
    out, lines = magic_beans_trace(tmp_path, flat=True)
    header = json.loads(lines[0])
    for version, code, err in (
        (ENGINE, 1, "cannot replay: bad trace record on line 2: 'recipients'\n"),
        ("0.2.0", 1, f"replay failed: header engine_version must be {ENGINE!r}, got '0.2.0'\n"),
    ):
        header["engine_version"] = version
        lines[0] = canonical_json(header)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", "--trace", str(out)]) == code
        assert capsys.readouterr().err == err


@pytest.mark.parametrize("flat, shown", [(False, 6), (True, 0)], ids=["current-format", "0.2.0-format"])
def test_audit_names_another_engine_version_before_its_report(tmp_path, capsys, flat, shown):
    out, lines = magic_beans_trace(tmp_path, flat)
    header = json.loads(lines[0])
    header["engine_version"] = "0.2.0"
    lines[0] = canonical_json(header)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["audit", "--trace", str(out)]) == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[0] == f"trace header engine_version '0.2.0' is not this engine's {ENGINE!r}"
    assert len(err) == 1 + 6 - shown
    assert all(line.endswith("corrupt record ('recipients')") for line in err[1:])
    assert captured.out.endswith(f"{shown} record(s) shown, {6 - shown} corrupt line(s) skipped\n")
    # A trace of this engine's version gets no such line.
    header["engine_version"] = ENGINE
    lines[0] = canonical_json(header)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["audit", "--trace", str(out)]) == 0
    assert "engine_version" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, must",
    [
        ("max_steps", "x", "must be a positive integer, got 'x'"),
        ("max_steps", -2, "must be a positive integer, got -2"),
        ("seed", "s", "must be an integer in [0, 2^64), got 's'"),
    ],
    ids=["max_steps-text", "max_steps-negative", "seed-text"],
)
def test_replay_rejects_a_header_seed_or_budget_that_run_cannot_write(tmp_path, capsys, field, value, must):
    _, out = run_trace(tmp_path)
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header[field] = value
    lines[0] = canonical_json(header)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--trace", str(out)]) == 1
    assert capsys.readouterr().err == f"replay failed: header {field} {must}\n"


def test_replay_unreadable_trace(tmp_path, capsys):
    assert main(["replay", "--trace", str(tmp_path / "absent.jsonl")]) == 1
    assert "cannot replay" in capsys.readouterr().err


PHONE_MARKET = {
    "seed": 1,
    "max_steps": 1,
    "clock": {"start": "2024-05-01T09:00", "step_minutes": 30, "mode": "round"},
    "model": {"kind": "scripted"},
    "agents": [{"name": "Alice"}],
    "apps": [{"kind": "calendar"}],
    "phones": {"Alice": ["calendar"]},
    "gm": {
        "components": [
            {"type": "scene_trigger"},
            {"type": "inventory", "endowments": {"Alice": {"coin": 5}}},
        ]
    },
}


@pytest.mark.parametrize("delay_ms", [0, 2], ids=["serial", "parallel"])
@pytest.mark.parametrize(
    "fail_on",
    [PRE_EXTRACT, STATE_QUESTION, OBSERVERS_QUESTION, DETECT_PHONE_QUESTION, POST_EXTRACT],
    ids=["pre-extract", "state", "observers", "phone-detect", "settle-extract"],
)
def test_run_exits_two_when_the_backend_fails_inside_a_resolution_batch(
    tmp_path, capsys, monkeypatch, fail_on, delay_ms
):
    def failing_model(config, script_override=None):
        model = BatchModel(delay_ms=delay_ms, fail_on=fail_on)
        model.sample_text("warm up")
        return model

    monkeypatch.setattr(gabm.config, "build_model", failing_model)
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(PHONE_MARKET), encoding="utf-8")
    out = tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"episode aborted: backend lost while asking {fail_on!r}" in capsys.readouterr().err

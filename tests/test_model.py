from __future__ import annotations

import json
import logging
import sys
import threading
import time
import types

import pytest

from gabm.errors import BackendUnavailable, NoMatchingOption
from gabm.kernel import ModelCall
from gabm.model import (
    PARALLEL_MIN_CALL_S,
    CallRecorder,
    EchoModel,
    GenerativeModel,
    HttpModel,
    ReplayModel,
    ScriptRule,
    ScriptedModel,
    render_choice_prompt,
    run_holding_calls,
    run_in_order,
)


def test_first_matching_rule_wins_and_consumes():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="greet", response="hello", max_uses=1),
            ScriptRule(contains="greet", response="hi again"),
        ],
        default_response="pass",
    )
    assert model.sample_text("please greet") == "hello"
    assert model.sample_text("please greet") == "hi again"
    assert model.sample_text("please greet") == "hi again"
    assert model.sample_text("unrelated") == "pass"
    assert model.call_count == 4


def test_three_rule_consumption_table():
    # Hand-walked table: rule A fires once, rule B twice, then C unlimited.
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="ping", response="A", max_uses=1),
            ScriptRule(contains="ping", response="B", max_uses=2),
            ScriptRule(contains="ping", response="C"),
        ]
    )
    answers = [model.sample_text("ping") for _ in range(5)]
    assert answers == ["A", "B", "B", "C", "C"]


def test_identical_prompts_same_rules_same_answers():
    def fresh():
        return ScriptedModel(
            rules=[ScriptRule(contains="x", response="one", max_uses=1)],
            default_response="two",
        )

    prompts = ["x", "x", "y"]
    model_a, model_b = fresh(), fresh()
    assert [model_a.sample_text(p) for p in prompts] == [model_b.sample_text(p) for p in prompts]


def test_pattern_and_contains_all_matchers():
    model = ScriptedModel(
        rules=[
            ScriptRule(pattern=r"rate .* stars", response="5"),
            ScriptRule(contains_all=("alpha", "beta"), response="both"),
        ]
    )
    assert model.sample_text("rate the food in stars") == "5"
    assert model.sample_text("beta then alpha") == "both"
    assert model.sample_text("alpha only") == "pass"


def test_rule_needs_exactly_one_matcher():
    with pytest.raises(ValueError):
        ScriptRule(response="x")
    with pytest.raises(ValueError):
        ScriptRule(response="x", contains="a", pattern="b")


def test_script_round_trips_through_json(tmp_path):
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="a", response="1", max_uses=2),
            ScriptRule(pattern="b+", response="2"),
            ScriptRule(contains_all=("c", "d"), response="3"),
        ],
        default_response="dflt",
    )
    path = tmp_path / "script.json"
    path.write_text(json.dumps(model.to_dict()), encoding="utf-8")
    again = ScriptedModel.from_file(str(path))
    assert again.to_dict() == model.to_dict()
    assert again.sample_text("a") == "1"


def test_sample_choice_matches_directly():
    model = ScriptedModel(rules=[ScriptRule(contains="pick", response="No")])
    index, text = model.sample_choice("pick one", ("yes", "no"))
    assert (index, text) == (1, "no")


def test_sample_choice_retries_then_succeeds():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="pick", response="garbage", max_uses=1),
            ScriptRule(contains="pick", response="still garbage", max_uses=1),
            ScriptRule(contains="pick", response="yes"),
        ]
    )
    recorder = CallRecorder()
    model.set_recorder(recorder)
    index, text = model.sample_choice("pick one", ("yes", "no"))
    assert (index, text) == (0, "yes")
    # Two failures plus the success, every attempt logged.
    assert len(recorder.calls) == 3
    assert "exactly one of the options" in recorder.calls[1].prompt


def test_sample_choice_exhausts_retry_budget():
    model = ScriptedModel(default_response="never an option")
    with pytest.raises(NoMatchingOption):
        model.sample_choice("pick", ("yes", "no"))
    # One initial attempt plus three repairs.
    assert model.call_count == 4


def test_recorder_sees_every_call_in_order():
    model = ScriptedModel(rules=[ScriptRule(contains="q", response="a")])
    recorder = CallRecorder()
    model.set_recorder(recorder)
    model.sample_text("q1", caller="one")
    model.sample_text("q2", caller="two")
    model.set_recorder(None)
    model.sample_text("q3", caller="three")
    assert [c.caller for c in recorder.calls] == ["one", "two"]
    assert [c.response for c in recorder.calls] == ["a", "a"]
    assert all(c.backend == "scripted" for c in recorder.calls)


def test_echo_model_answers_last_line():
    model = EchoModel()
    assert model.sample_text("context\n\nfinal question?  ") == "final question?"
    assert model.sample_text("") == ""


def test_render_choice_prompt_lists_options():
    rendered = render_choice_prompt("Pick a side.", ("red", "blue"))
    assert "Pick a side." in rendered
    assert "- red" in rendered and "- blue" in rendered


def test_replay_model_feeds_recorded_sequence():
    calls = [
        ModelCall("a", "p1", "r1", "scripted"),
        ModelCall("b", "p2", "r2", "http"),
    ]
    model = ReplayModel(calls)
    recorder = CallRecorder()
    model.set_recorder(recorder)
    assert model.sample_text("anything") == "r1"
    assert model.sample_text("anything else") == "r2"
    assert model.sample_text("overflow") == ""
    assert [c.backend for c in recorder.calls] == ["scripted", "http", "http"]


def test_replay_model_answers_in_recorded_order_and_never_runs_a_batch_together():
    calls = [
        ModelCall("a", "p1", "r1", "scripted"),
        ModelCall("b", "p2", "r2", "http"),
        ModelCall("a", "p3", "r3", "scripted"),
    ]
    model = ReplayModel(calls)
    recorder = CallRecorder()
    model.set_recorder(recorder)
    # The caller does not steer which recorded call answers.
    assert model.sample_text("x", caller="b") == "r1"
    assert model.sample_text("x", caller="a") == "r2"
    assert model.sample_text("x", caller="c") == "r3"
    assert [c.backend for c in recorder.calls] == ["scripted", "http", "scripted"]
    # Replay measures no call time, so a batch runs one task at a time, in
    # task order, when each is taken: the order the trace recorded.
    assert model.call_seconds is None
    tasks = [lambda: model.sample_text("y"), lambda: model.sample_text("z")]
    assert run_holding_calls(tasks, model) == tasks


class SleepyModel(GenerativeModel):
    """Answers with the prompt after sleeping the milliseconds in ``delays``.

    Logs the prompt and thread of each completion, in completion order.
    """

    backend_id = "sleepy"

    def __init__(self, delays: dict[str, float] | None = None, default_ms: float = 2.0):
        super().__init__()
        self.delays = delays or {}
        self.default_ms = default_ms
        self.finished: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        delay_ms = self.delays.get(prompt, self.default_ms)
        if delay_ms:
            # Even sleep(0) gives up the CPU, which on a busy host can take
            # milliseconds to come back and lift a 0 ms model over the gate.
            time.sleep(delay_ms / 1000)
        with self._lock:
            self.finished.append((prompt, threading.current_thread().name))
        return prompt


def warmed(model: GenerativeModel) -> GenerativeModel:
    model.sample_text("warm up")
    assert model.call_seconds >= PARALLEL_MIN_CALL_S
    return model


def test_run_in_order_records_in_task_order_not_completion_order():
    model = warmed(SleepyModel({"first": 60, "second": 30, "third": 1}))
    recorder = CallRecorder()
    model.set_recorder(recorder)
    run_in_order([lambda p=p: model.sample_text(p, caller=p) for p in ("first", "second", "third")], model)
    assert [c.caller for c in recorder.calls] == ["first", "second", "third"]


def test_run_in_order_hands_nested_batches_to_the_enclosing_task():
    model = warmed(SleepyModel({"a": 40, "b1": 30, "b2": 1, "c": 1}))
    recorder = CallRecorder()
    model.set_recorder(recorder)

    def call(prompt):
        return lambda: model.sample_text(prompt, caller=prompt)

    def nested():
        model.sample_text("b0", caller="b0")
        run_in_order([call("b1"), call("b2")], model)

    run_in_order([call("a"), nested, call("c")], model)
    assert [c.caller for c in recorder.calls] == ["a", "b0", "b1", "b2", "c"]


def test_run_in_order_raises_first_failure_in_task_order_and_drops_later_calls():
    model = warmed(SleepyModel({"slow failure": 40}))
    recorder = CallRecorder()
    model.set_recorder(recorder)

    def fail(prompt):
        def task():
            model.sample_text(prompt, caller=prompt)
            raise RuntimeError(prompt)

        return task

    tasks = [
        lambda: model.sample_text("ok", caller="ok"),
        fail("slow failure"),
        fail("fast failure"),
        lambda: model.sample_text("later", caller="later"),
    ]
    with pytest.raises(RuntimeError, match="slow failure"):
        run_in_order(tasks, model)
    assert [c.caller for c in recorder.calls] == ["ok", "slow failure"]


@pytest.mark.parametrize("delay_ms", [0, 2], ids=["serial", "parallel"])
def test_run_holding_calls_records_only_what_is_taken(delay_ms):
    model = SleepyModel(default_ms=delay_ms)
    model.sample_text("warm up")
    recorder = CallRecorder()
    model.set_recorder(recorder)

    def fail():
        model.sample_text("failing", caller="failing")
        raise RuntimeError("failing")

    tasks = [
        lambda: model.sample_text("ok", caller="ok"),
        fail,
        lambda: model.sample_text("later", caller="later"),
    ]
    # The gate reads the measured call time, which a host stall can push
    # over it even at 0 ms, so check against what this batch will see.
    together = model.call_seconds >= PARALLEL_MIN_CALL_S
    take_ok, take_failed, _ = run_holding_calls(tasks, model)
    assert recorder.calls == []
    assert take_ok() == "ok"
    assert [c.caller for c in recorder.calls] == ["ok"]
    with pytest.raises(RuntimeError, match="failing"):
        take_failed()
    assert [c.caller for c in recorder.calls] == ["ok", "failing"]
    # Run together, all three ran before the first take; one at a time,
    # each runs when taken.  Either way the untaken task's call is not
    # recorded.
    ran = [prompt for prompt, _ in model.finished[1:]]
    assert sorted(ran) == (["failing", "later", "ok"] if together else ["failing", "ok"])


def test_run_in_order_stays_on_the_calling_thread_below_the_gate():
    model = SleepyModel(default_ms=0)
    model.sample_text("warm up")
    assert model.call_seconds < PARALLEL_MIN_CALL_S
    run_in_order([lambda p=p: model.sample_text(p) for p in "abc"], model)
    assert {thread for _, thread in model.finished} == {threading.current_thread().name}


class FakeHTTPError(Exception):
    def __init__(self, reply):
        super().__init__(f"HTTP {reply.status_code}")
        self.response = reply


class FakeReply:
    def __init__(self, status_code: int, content: str = ""):
        self.status_code = status_code
        self.content = content

    def raise_for_status(self):
        if self.status_code >= 400:
            raise FakeHTTPError(self)

    def json(self):
        return {"choices": [{"message": {"content": self.content}}]}


@pytest.fixture
def fake_http(monkeypatch):
    """A stub ``requests`` whose replies are queued by the test; no network."""
    replies: list = []
    posts: list[str] = []
    sleeps: list[float] = []

    def post(url, json, headers, timeout):
        posts.append(url)
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setitem(sys.modules, "requests", types.SimpleNamespace(post=post))
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return types.SimpleNamespace(replies=replies, posts=posts, sleeps=sleeps)


def test_http_model_retries_transient_errors_with_backoff(fake_http, caplog):
    fake_http.replies += [FakeReply(503), FakeReply(429), FakeReply(200, "hello")]
    model = HttpModel(endpoint="http://model.invalid/v1", max_retries=3)
    with caplog.at_level(logging.WARNING, logger="gabm.model"):
        assert model.sample_text("hi") == "hello"
    assert fake_http.sleeps == [1.0, 2.0]
    assert len(caplog.records) == 2
    assert "attempt 1 of 3" in caplog.records[0].getMessage()
    assert "HTTP 429" in caplog.records[1].getMessage()


def test_http_model_does_not_sleep_after_the_last_attempt(fake_http, caplog):
    fake_http.replies += [ConnectionError("refused")] * 3
    model = HttpModel(endpoint="http://model.invalid/v1", max_retries=3)
    with caplog.at_level(logging.WARNING, logger="gabm.model"):
        with pytest.raises(BackendUnavailable, match="after 3 tries: refused"):
            model.sample_text("hi")
    assert len(fake_http.posts) == 3
    assert fake_http.sleeps == [1.0, 2.0]
    assert len(caplog.records) == 2


def test_http_model_does_not_retry_client_errors(fake_http):
    fake_http.replies += [FakeReply(400)]
    model = HttpModel(endpoint="http://model.invalid/v1", max_retries=3)
    with pytest.raises(BackendUnavailable, match="rejected the request: HTTP 400"):
        model.sample_text("hi")
    assert len(fake_http.posts) == 1
    assert fake_http.sleeps == []

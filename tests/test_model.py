from __future__ import annotations

import json
import logging
import re
import sys
import threading
import time
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gabm.errors import BackendUnavailable, InvalidModelOutput, NoMatchingOption
from gabm.kernel import ModelCall
from gabm.model import (
    _CHOICE_REPAIR,
    PARALLEL_MIN_CALL_S,
    REPAIR_BUDGET,
    EchoModel,
    GenerativeModel,
    HttpModel,
    ReplayModel,
    ScriptRule,
    ScriptedModel,
    ask_all,
    close_calls,
    open_calls,
    render_choice_prompt,
)

from conftest import oracle_settings


def test_first_matching_rule_wins_and_consumes(calls):
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
    assert len(calls) == 4


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


@pytest.mark.parametrize("pieces", ["zq", []], ids=["text", "empty"])
def test_contains_all_must_be_a_non_empty_list_of_strings(pieces):
    # "zq" once became the pieces ("z", "q") and answered "the quiz"; an
    # empty list matched every prompt.
    with pytest.raises(ValueError):
        ScriptRule(response="hit", contains_all=pieces)


def test_script_round_trips_through_json(tmp_path):
    script = {
        "default": "dflt",
        "rules": [
            {"contains": "a", "response": "1", "max_uses": 2},
            {"pattern": "b+", "response": "2"},
            {"contains_all": ["c", "d"], "response": "3"},
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    model = ScriptedModel.from_file(str(path))
    assert model.rules == [
        ScriptRule(contains="a", response="1", max_uses=2),
        ScriptRule(pattern="b+", response="2"),
        ScriptRule(contains_all=("c", "d"), response="3"),
    ]
    assert [rule.to_dict() for rule in model.rules] == script["rules"]
    assert model.default_response == "dflt"
    assert model.sample_text("a") == "1"


# Short needles over a two-letter alphabet, so they overlap and nest ("a"
# in "ab" in "bab"), including "", which every prompt contains.
NEEDLES = st.text(alphabet="ab", max_size=3)
PATTERNS = ("a", "b+a", "^a", "b$", "ab|ba", "a.*b", "\\n", "^$")
RULE_SPECS = st.tuples(
    st.one_of(
        st.tuples(st.just("contains"), NEEDLES),
        st.tuples(st.just("contains_all"), st.lists(NEEDLES, min_size=1, max_size=3).map(tuple)),
        st.tuples(st.just("pattern"), st.sampled_from(PATTERNS)),
    ),
    st.none() | st.integers(1, 3),
)
PROMPTS = st.lists(st.text(alphabet="ab\n", max_size=6), max_size=10)


def linear_scan(rules: list, uses: list[int], prompt: str) -> str:
    """The scripted model's answer, found by trying every rule in order."""
    for index, (response, (kind, matcher), max_uses) in enumerate(rules):
        if max_uses is not None and uses[index] >= max_uses:
            continue
        if kind == "contains":
            hit = matcher in prompt
        elif kind == "contains_all":
            hit = all(piece in prompt for piece in matcher)
        else:
            hit = re.search(matcher, prompt, re.DOTALL) is not None
        if hit:
            uses[index] += 1
            return response
    return "default"


def script_rule(spec: tuple) -> ScriptRule:
    response, (kind, matcher), max_uses = spec
    return ScriptRule(response=response, max_uses=max_uses, **{kind: matcher})


@oracle_settings(300)
@given(
    specs=st.lists(RULE_SPECS, max_size=12),
    front=st.lists(RULE_SPECS, max_size=3),
    back=st.lists(RULE_SPECS, max_size=3),
    before=PROMPTS,
    after=PROMPTS,
)
def test_needle_filter_matches_linear_scan_oracle(specs, front, back, before, after):
    # Each rule answers with its own name, so an answer shows which rule won.
    def named(specs, first):
        return [(f"rule {first + i}", *spec) for i, spec in enumerate(specs)]

    specs, front, back = named(specs, 0), named(front, 100), named(back, 200)
    model = ScriptedModel([script_rule(spec) for spec in specs], default_response="default")

    def check(prompts, oracle, uses):
        for prompt in prompts:
            assert model.sample_text(prompt) == linear_scan(oracle, uses, prompt)
            assert [rule.uses for rule in model.rules] == uses

    uses = [0] * len(specs)
    check(before, specs, uses)
    # Rules added in place, before and after the others, are tried too.
    model.rules[:0] = [script_rule(spec) for spec in front]
    for spec in back:
        model.rules.append(script_rule(spec))
    check(after, front + specs + back, [0] * len(front) + uses + [0] * len(back))


def test_a_call_tries_only_the_rules_its_prompt_holds_the_needle_of(monkeypatch):
    # Shaped like the crowd benchmark's script: per name an act, an event
    # and an observer rule, then a few shared questions; 100 rules.
    names = [f"Name{i:02d}" for i in range(32)]
    rules = []
    for name in names:
        rules += [
            ScriptRule(contains=f"What would {name} do next", response=f"{name} chats."),
            ScriptRule(contains_all=("What event results", f"Attempted action by {name}:"), response=f"{name} chatted."),
            ScriptRule(contains_all=("Who observes this event", f"Event: {name} "), response=f"{name}: saw it"),
        ]
    rules += [
        ScriptRule(contains_all=("Does this event involve", "smartphone"), response="yes"),
        ScriptRule(contains="Does this event involve", response="no"),
        ScriptRule(contains="parameter 'title'", response="catch-up"),
        ScriptRule(contains="What is the state of the world", response="Crowded."),
    ]
    assert len(rules) == 100
    tried = []
    matches = ScriptRule.matches
    monkeypatch.setattr(ScriptRule, "matches", lambda rule, prompt: tried.append(rule) or matches(rule, prompt))
    model = ScriptedModel(rules)
    counts = {}
    for name in names:
        for kind, prompt in (
            ("act", f"{name} is in the square.\nWhat would {name} do next?"),
            ("event", f"What event results from this?\nAttempted action by {name}: {name} chats."),
            ("observers", f"Who observes this event, and what do they see?\nEvent: {name} chatted."),
            ("phone", f"Does this event involve a phone?\nEvent: {name} chatted."),
            ("state", f"{name} chatted.\nWhat is the state of the world?"),
        ):
            tried.clear()
            assert model.sample_text(prompt) != "pass"
            counts.setdefault(kind, []).append(len(tried))
    # Each act or event prompt holds one rule's needle; both phone rules
    # hold "Does this event involve".  Every observer rule's needle is the
    # shared question, its longest piece, so an observer prompt tries the
    # observer rules up to the actor's: the one kind that tries more.
    assert counts["act"] == counts["event"] == counts["state"] == [1] * len(names)
    assert counts["phone"] == [2] * len(names)
    assert counts["observers"] == list(range(1, len(names) + 1))
    # That is 4.3 matches calls a call on average, where trying every rule
    # in order made 68.7.


def test_sample_choice_matches_directly():
    model = ScriptedModel(rules=[ScriptRule(contains="pick", response="No")])
    index, text = model.sample_choice("pick one", ("yes", "no"))
    assert (index, text) == (1, "no")


def test_sample_choice_retries_then_succeeds(calls):
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="pick", response="garbage", max_uses=1),
            ScriptRule(contains="pick", response="still garbage", max_uses=1),
            ScriptRule(contains="pick", response="yes"),
        ]
    )
    index, text = model.sample_choice("pick one", ("yes", "no"))
    assert (index, text) == (0, "yes")
    # Two failures plus the success, every attempt logged.
    assert len(calls) == 3
    assert "exactly one of the options" in calls[1].prompt


def test_sample_choice_exhausts_retry_budget(calls):
    answers = ["first", "second", "third", "fourth"]
    model = ScriptedModel(rules=[ScriptRule(contains="pick", response=a, max_uses=1) for a in answers])
    with pytest.raises(NoMatchingOption, match="'fourth'"):
        model.sample_choice("pick", ("yes", "no"))
    # One initial attempt plus three repairs, each added to the prompt so
    # far; the last answer's parse error is the one raised.
    assert REPAIR_BUDGET == 3 and len(calls) == 4
    assert calls[-1].prompt == "pick" + ("\n" + _CHOICE_REPAIR) * 3


def test_sample_choice_does_not_retry_a_failing_model_call():
    class Down(GenerativeModel):
        attempts = 0

        def _complete(self, prompt, max_chars):
            Down.attempts += 1
            raise BackendUnavailable("endpoint down")

    with pytest.raises(BackendUnavailable):
        Down().sample_choice("pick", ("yes", "no"))
    assert Down.attempts == 1


def test_calls_are_recorded_into_the_open_list_only():
    model = ScriptedModel(rules=[ScriptRule(contains="q", response="a")])
    model.sample_text("q0", caller="zero")  # no list open: recorded nowhere
    outer: list[ModelCall] = []
    inner: list[ModelCall] = []
    outer_token = open_calls(outer)
    model.sample_text("q1", caller="one")
    inner_token = open_calls(inner)
    EchoModel().sample_text("q2", caller="two")
    close_calls(inner_token)
    model.sample_text("q3", caller="three")
    close_calls(outer_token)
    model.sample_text("q4", caller="four")
    assert [c.caller for c in outer] == ["one", "three"]
    assert [c.response for c in outer] == ["a", "a"]
    assert [c.caller for c in inner] == ["two"]
    assert [c.backend for c in outer + inner] == ["scripted", "scripted", "echo"]


def test_echo_model_answers_last_line():
    model = EchoModel()
    assert model.sample_text("context\n\nfinal question?  ") == "final question?"
    assert model.sample_text("") == ""


def test_render_choice_prompt_lists_options():
    rendered = render_choice_prompt("Pick a side.", ("red", "blue"))
    assert "Pick a side." in rendered
    assert "- red" in rendered and "- blue" in rendered


def test_replay_model_feeds_recorded_sequence(calls):
    recorded = [
        ModelCall("a", "p1", "r1", "scripted"),
        ModelCall("b", "p2", "r2", "http"),
    ]
    model = ReplayModel(recorded)
    assert model.sample_text("anything") == "r1"
    assert model.sample_text("anything else") == "r2"
    # Past the last recorded call the backend is gone, as it was when the
    # recorded run failed there, and nothing is recorded.
    with pytest.raises(BackendUnavailable, match="ran out of recorded model calls"):
        model.sample_text("overflow")
    assert [c.backend for c in calls] == ["scripted", "http"]


def test_replay_model_answers_in_recorded_order_and_never_runs_a_batch_together(calls):
    recorded = [
        ModelCall("a", "p1", "r1", "scripted"),
        ModelCall("b", "p2", "r2", "http"),
        ModelCall("a", "p3", "r3", "scripted"),
        ModelCall("d", "p4", "r4", "scripted"),
    ]
    model = ReplayModel(recorded)
    # The caller does not steer which recorded call answers.
    assert model.sample_text("x", caller="b") == "r1"
    assert model.sample_text("x", caller="a") == "r2"
    assert model.sample_text("x", caller="c") == "r3"
    assert [c.backend for c in calls] == ["scripted", "http", "scripted"]
    # Replay measures no call time, so a batch makes one call at a time, in
    # ask order, as each answer is next: the order the trace recorded.  The
    # ask past the last recorded call raises at its turn.
    assert model.call_seconds is None
    answers = ask_all(model, [("y", "d"), ("z", "e")])
    assert next(answers) == "r4"
    assert [c.caller for c in calls] == ["b", "a", "c", "d"]
    with pytest.raises(BackendUnavailable):
        next(answers)
    assert [c.caller for c in calls] == ["b", "a", "c", "d"]


class SleepyModel(GenerativeModel):
    """Answers with the prompt after sleeping the milliseconds in ``delays``.

    Logs the prompt and thread of each completion, in completion order.  A
    prompt in ``failing`` raises RuntimeError instead of answering.
    """

    backend_id = "sleepy"

    def __init__(self, delays: dict[str, float] | None = None, default_ms: float = 2.0, failing=()):
        super().__init__()
        self.delays = delays or {}
        self.default_ms = default_ms
        self.failing = set(failing)
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
        if prompt in self.failing:
            raise RuntimeError(prompt)
        return prompt


def warmed(model: GenerativeModel, calls: list[ModelCall]) -> GenerativeModel:
    model.sample_text("warm up")
    assert model.call_seconds >= PARALLEL_MIN_CALL_S
    calls.clear()  # the warm-up call is no part of the check
    return model


def asks(*prompts: str) -> list[tuple[str, str]]:
    return [(prompt, prompt) for prompt in prompts]


def test_run_in_order_records_in_task_order_not_completion_order(calls):
    model = warmed(SleepyModel({"first": 60, "second": 30, "third": 1}), calls)
    answers = list(ask_all(model, asks("first", "second", "third")))
    assert answers == ["first", "second", "third"]
    assert [c.caller for c in calls] == ["first", "second", "third"]
    # They did go out together: the last asked finished first.
    assert [prompt for prompt, _ in model.finished[1:]] == ["third", "second", "first"]


def test_run_in_order_raises_first_failure_in_task_order_and_drops_later_calls(calls):
    model = SleepyModel({"slow failure": 40}, failing={"slow failure", "fast failure"})
    warmed(model, calls)
    answers = ask_all(model, asks("ok", "slow failure", "fast failure", "later"))
    assert next(answers) == "ok"
    with pytest.raises(RuntimeError, match="slow failure"):
        next(answers)
    # A failed call records nothing, and the later asks' calls, which did
    # run, are never handed on.
    assert [c.caller for c in calls] == ["ok"]
    assert sorted(prompt for prompt, _ in model.finished[1:]) == [
        "fast failure", "later", "ok", "slow failure"
    ]


@pytest.mark.parametrize("delay_ms", [0, 2], ids=["serial", "parallel"])
def test_run_holding_calls_records_only_what_is_taken(delay_ms, calls):
    model = SleepyModel(default_ms=delay_ms, failing={"failing"})
    model.sample_text("warm up")
    calls.clear()
    # The gate reads the measured call time, which a host stall can push
    # over it even at 0 ms, so check against what this batch will see.
    together = model.call_seconds >= PARALLEL_MIN_CALL_S
    answers = ask_all(model, asks("ok", "failing", "later"))
    assert calls == []
    assert next(answers) == "ok"
    assert [c.caller for c in calls] == ["ok"]
    with pytest.raises(RuntimeError, match="failing"):
        next(answers)
    assert [c.caller for c in calls] == ["ok"]
    # Together, all three ran before the first answer; one at a time, each
    # runs when its answer is next.  Either way the call after the failing
    # one is not recorded.
    ran = [prompt for prompt, _ in model.finished[1:]]
    assert sorted(ran) == (["failing", "later", "ok"] if together else ["failing", "ok"])


def test_run_in_order_stays_on_the_calling_thread_below_the_gate():
    model = SleepyModel(default_ms=0)
    model.sample_text("warm up")
    assert model.call_seconds < PARALLEL_MIN_CALL_S
    assert list(ask_all(model, asks("a", "b", "c"))) == ["a", "b", "c"]
    assert {thread for _, thread in model.finished} == {threading.current_thread().name}


class FakeHTTPError(Exception):
    def __init__(self, reply):
        super().__init__(f"HTTP {reply.status_code}")
        self.response = reply


class FakeReply:
    def __init__(self, status_code: int, content: object = ""):
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


@pytest.mark.parametrize("content", [None, 5, ["text"]], ids=["null", "number", "list"])
def test_http_model_rejects_a_reply_whose_content_is_not_text(fake_http, content):
    fake_http.replies += [FakeReply(200, content)]
    model = HttpModel(endpoint="http://model.invalid/v1", max_retries=3)
    with pytest.raises(InvalidModelOutput, match="content, not text"):
        model.sample_text("hi")
    assert len(fake_http.posts) == 1
    assert fake_http.sleeps == []


def test_http_model_does_not_retry_client_errors(fake_http):
    fake_http.replies += [FakeReply(400)]
    model = HttpModel(endpoint="http://model.invalid/v1", max_retries=3)
    with pytest.raises(BackendUnavailable, match="rejected the request: HTTP 400"):
        model.sample_text("hi")
    assert len(fake_http.posts) == 1
    assert fake_http.sleeps == []


class SurrogateTail(GenerativeModel):
    """Answers every prompt with a text that ends in a lone surrogate."""

    backend_id = "stub"

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        return "pass \ud800"


def test_an_answer_with_a_lone_surrogate_is_recorded_with_the_replacement_character(calls):
    # No trace can hold a lone surrogate; recording it used to fail the
    # run on its next trace write.
    assert SurrogateTail().sample_text("hi", caller="t") == "pass \ufffd"
    assert calls == [ModelCall("t", "hi", "pass \ufffd", "stub")]


def test_http_model_replaces_an_escaped_lone_surrogate_from_a_local_endpoint(monkeypatch, calls):
    # A real HTTP round trip on the loopback interface: the endpoint's JSON
    # escapes a lone surrogate, which the reply's JSON decoding produces.
    from http.server import BaseHTTPRequestHandler, HTTPServer

    body = b'{"choices": [{"message": {"content": "fine \\ud800 thanks"}}]}'

    class Endpoint(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    for var in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), Endpoint)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        model = HttpModel(endpoint=f"http://127.0.0.1:{server.server_port}/v1", timeout=10, max_retries=1)
        answer = model.sample_text("hi", caller="t")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert answer == "fine \ufffd thanks"
    assert calls == [ModelCall("t", "hi", "fine \ufffd thanks", "http")]

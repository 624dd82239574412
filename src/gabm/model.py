"""Language model backends behind one narrow sampling interface.

The engine only ever needs two operations: sample free text, and sample one
option from a fixed list.  Every call is recorded to whichever CallRecorder
is currently installed on the backend, which is how trace records end up
holding the complete prompt/response log for each acting turn.

ScriptedModel is the deterministic test backend: an ordered rule list with
per-rule consumption budgets and a default response.  HttpModel adapts any
chat-completions endpoint and is never touched by the default test suite.

``run_in_order`` issues independent tasks together when the model is slow
enough for that to pay, and records their calls in task order, so a trace
does not depend on which call came back first.  ``run_holding_calls`` does
the same but leaves it to the caller to say when each task's calls are
recorded.
"""

from __future__ import annotations

import contextvars
import functools
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import BackendUnavailable, NoMatchingOption
from .kernel import ModelCall, parse_choice

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

log = logging.getLogger(__name__)

# Crude budget bridge for backends that meter tokens rather than characters.
CHARS_PER_TOKEN = 4

CHOICE_RETRY_BUDGET = 3
_CHOICE_REPAIR = "Answer with exactly one of the options, verbatim."

# run_in_order issues tasks in parallel only for a model whose measured
# wall time per call is at least this: below it the hand-offs between
# threads cost more than the overlap saves.
PARALLEL_MIN_CALL_S = 0.001
# Weight of the newest call in the moving average of call wall time.
CALL_TIME_WEIGHT = 0.1
# Upper bound on pool threads; they start only as batches need them.
POOL_MAX_WORKERS = 16

# The calls of the parallel task running in this context, as (recorder,
# call) pairs held back until the task's taker hands them on.
_call_slot: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "gabm_call_slot", default=None
)
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


class CallRecorder:
    """Thread-safe sink for model calls, drained into one trace record."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls: list[ModelCall] = []

    def record(self, call: ModelCall) -> None:
        with self._lock:
            self.calls.append(call)


class GenerativeModel:
    """Base backend: subclasses implement ``_complete`` only."""

    backend_id = "abstract"

    def __init__(self):
        self._recorder: CallRecorder | None = None
        # Moving average of the wall time of _complete; None before any call.
        self.call_seconds: float | None = None

    def set_recorder(self, recorder: CallRecorder | None) -> None:
        self._recorder = recorder

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        raise NotImplementedError

    def _record(self, caller: str, prompt: str, response: str, backend: str | None = None) -> None:
        recorder = self._recorder
        if recorder is None:
            return
        call = ModelCall(
            caller=caller,
            prompt=prompt,
            response=response,
            backend=self.backend_id if backend is None else backend,
        )
        slot = _call_slot.get()
        if slot is None:
            recorder.record(call)
        else:
            slot.append((recorder, call))

    def sample_text(self, prompt: str, *, max_chars: int | None = None, caller: str = "") -> str:
        start = time.perf_counter()
        response = self._complete(prompt, max_chars)
        elapsed = time.perf_counter() - start
        # Unlocked: a racing update loses one sample, which the gate in
        # run_in_order tolerates.
        average = self.call_seconds
        self.call_seconds = (
            elapsed if average is None else average + CALL_TIME_WEIGHT * (elapsed - average)
        )
        self._record(caller, prompt, response)
        return response

    def sample_choice(
        self, prompt: str, options: list[str] | tuple[str, ...], *, caller: str = ""
    ) -> tuple[int, str]:
        """Ask for one option; re-prompt on garbage, then give up.

        The first attempt sends the prompt as rendered by the caller.  Each
        repair attempt appends an explicit instruction to answer with exactly
        one option.  After the retry budget the last parse error propagates.
        """
        attempt_prompt = prompt
        last_error: NoMatchingOption | None = None
        for attempt in range(1 + CHOICE_RETRY_BUDGET):
            if attempt > 0:
                attempt_prompt = attempt_prompt + "\n" + _CHOICE_REPAIR
            raw = self.sample_text(attempt_prompt, caller=caller)
            try:
                return parse_choice(raw, options)
            except NoMatchingOption as exc:
                last_error = exc
        raise last_error  # type: ignore[misc]


def _shared_pool() -> ThreadPoolExecutor:
    # Imported here so a run that never goes parallel does not load it.
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=POOL_MAX_WORKERS, thread_name_prefix="gabm")
        return _pool


def _hand_over(calls: list, result: object = None, error: BaseException | None = None) -> object:
    # Inside a task of an enclosing batch the calls join that task's held
    # calls; otherwise each goes to its recorder.
    enclosing = _call_slot.get()
    if enclosing is not None:
        enclosing.extend(calls)
    else:
        for recorder, call in calls:
            recorder.record(call)
    if error is not None:
        raise error
    return result


def _run_holding(task: Callable[[], object]) -> Callable[[], object]:
    # Runs the task with its calls held back; returns its taker.
    calls: list = []
    token = _call_slot.set(calls)
    try:
        result = task()
    except BaseException as exc:  # noqa: BLE001 - raised when taken
        return functools.partial(_hand_over, calls, error=exc)
    finally:
        _call_slot.reset(token)
    return functools.partial(_hand_over, calls, result)


def run_holding_calls(
    tasks: Sequence[Callable[[], object]], model: GenerativeModel
) -> list[Callable[[], object]]:
    """Run independent tasks; return one taker per task, in task order.

    Calling a task's taker records the task's model calls and returns its
    result or raises its error, so the caller decides where in its own
    sequence each task's calls appear.  With more than one task and a
    model whose measured call time is at least ``PARALLEL_MIN_CALL_S``,
    the tasks run together on a shared thread pool before this returns,
    and their calls are held until taken.  Otherwise each taker is the
    task itself, which runs on the calling thread when taken.  Tasks must
    not depend on each other's effects or on what the caller does between
    takes.  A caller that takes the tasks in order and stops at the first
    error records what running them one at a time would have recorded:
    the calls of the tasks after a failing one are never recorded, whether
    or not they ran.
    """
    average = model.call_seconds
    if len(tasks) < 2 or average is None or average < PARALLEL_MIN_CALL_S:
        return list(tasks)
    pool = _shared_pool()
    futures = [pool.submit(contextvars.copy_context().run, _run_holding, task) for task in tasks[1:]]
    takers = [_run_holding(tasks[0])]
    for task, future in zip(tasks[1:], futures):
        # A task no thread has started yet runs when taken, so a batch
        # nested in a task never waits on a pool that its own batch filled.
        takers.append(task if future.cancel() else future.result())
    return takers


def run_in_order(tasks: Sequence[Callable[[], object]], model: GenerativeModel) -> None:
    """Run independent tasks; their model calls are recorded in task order.

    The recorder sees every call of task 0, then of task 1, and so on,
    whatever order the calls came back in.  If tasks fail, the first
    failing task's error is raised once its calls are recorded, and the
    calls of the tasks after it are dropped.
    """
    for take in run_holding_calls(tasks, model):
        take()


def render_choice_prompt(prompt: str, options: list[str] | tuple[str, ...]) -> str:
    """Standard option footer appended to choice prompts."""
    listed = "\n".join(f"- {option}" for option in options)
    return f"{prompt}\nPick exactly one option:\n{listed}\nAnswer:"


@dataclass
class ScriptRule:
    """One response rule: a matcher, the reply, and a consumption budget.

    Exactly one of ``contains``, ``contains_all``, ``pattern`` must be set.
    ``max_uses`` of None means the rule never exhausts.
    """

    response: str
    contains: str | None = None
    contains_all: tuple[str, ...] | None = None
    pattern: str | None = None
    max_uses: int | None = None
    uses: int = field(default=0, compare=False)

    def __post_init__(self):
        matchers = [m for m in (self.contains, self.contains_all, self.pattern) if m is not None]
        if len(matchers) != 1:
            raise ValueError("rule needs exactly one of contains / contains_all / pattern")
        if self.pattern is not None:
            self._compiled = re.compile(self.pattern, re.DOTALL)

    def matches(self, prompt: str) -> bool:
        if self.max_uses is not None and self.uses >= self.max_uses:
            return False
        if self.contains is not None:
            return self.contains in prompt
        if self.contains_all is not None:
            return all(piece in prompt for piece in self.contains_all)
        return self._compiled.search(prompt) is not None

    def to_dict(self) -> dict:
        data: dict = {"response": self.response}
        if self.contains is not None:
            data["contains"] = self.contains
        if self.contains_all is not None:
            data["contains_all"] = list(self.contains_all)
        if self.pattern is not None:
            data["pattern"] = self.pattern
        if self.max_uses is not None:
            data["max_uses"] = self.max_uses
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptRule":
        contains_all = data.get("contains_all")
        return cls(
            response=data["response"],
            contains=data.get("contains"),
            contains_all=tuple(contains_all) if contains_all is not None else None,
            pattern=data.get("pattern"),
            max_uses=data.get("max_uses"),
        )


class ScriptedModel(GenerativeModel):
    """Deterministic backend driven by an ordered rule list.

    The first live rule whose matcher hits the prompt answers and consumes
    one use; with no hit the default response answers.  Apart from the
    per-rule counters the backend is stateless, so identical prompt
    sequences always produce identical response sequences.
    """

    backend_id = "scripted"

    def __init__(self, rules: list[ScriptRule] | None = None, default_response: str = "pass"):
        super().__init__()
        self.rules = list(rules or [])
        self.default_response = default_response
        self.call_count = 0
        self._lock = threading.Lock()

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        with self._lock:
            self.call_count += 1
            for rule in self.rules:
                if rule.matches(prompt):
                    rule.uses += 1
                    return rule.response
            return self.default_response

    def to_dict(self) -> dict:
        return {
            "default": self.default_response,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptedModel":
        return cls(
            rules=[ScriptRule.from_dict(r) for r in data.get("rules", [])],
            default_response=data.get("default", "pass"),
        )

    @classmethod
    def from_file(cls, path: str) -> "ScriptedModel":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


class EchoModel(GenerativeModel):
    """Fallback backend: answers with the last non-empty prompt line."""

    backend_id = "echo"

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        lines = [line for line in prompt.splitlines() if line.strip()]
        return lines[-1].strip() if lines else ""


ENDPOINT_VAR = "GABM_MODEL_ENDPOINT"
KEY_VAR = "GABM_MODEL_KEY"
NAME_VAR = "GABM_MODEL_NAME"


class HttpModel(GenerativeModel):
    """Chat-completions adapter for an OpenAI-style HTTP endpoint.

    Endpoint, API key, and model name come from the constructor or the
    GABM_MODEL_ENDPOINT / GABM_MODEL_KEY / GABM_MODEL_NAME environment
    variables.  Transient failures are retried with backoff; a run out of
    retries surfaces as BackendUnavailable.
    """

    backend_id = "http"

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model_name: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 3,
    ):
        super().__init__()
        self.endpoint = (endpoint or os.environ.get(ENDPOINT_VAR, "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(KEY_VAR, "")
        self.model_name = model_name or os.environ.get(NAME_VAR, "")
        self.timeout = timeout
        self.max_retries = max_retries
        if not self.endpoint:
            raise BackendUnavailable(f"no endpoint configured; set {ENDPOINT_VAR}")

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        import requests

        payload: dict = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": prompt}],
        }
        if max_chars is not None:
            payload["max_tokens"] = max(1, max_chars // CHARS_PER_TOKEN)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.endpoint}/chat/completions"
        last_error: Exception | None = None
        for attempt in range(1, self.max_retries + 1):
            try:
                reply = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
                reply.raise_for_status()
                body = reply.json()
                return body["choices"][0]["message"]["content"]
            except Exception as exc:  # noqa: BLE001 - any transport failure retries
                last_error = exc
            status = getattr(getattr(last_error, "response", None), "status_code", None)
            if isinstance(status, int) and 400 <= status < 500 and status != 429:
                raise BackendUnavailable(f"model endpoint rejected the request: {last_error}")
            if attempt < self.max_retries:
                delay = min(2.0 ** (attempt - 1), 8.0)
                log.warning(
                    "model endpoint call failed (attempt %d of %d), retrying in %g s: %s",
                    attempt, self.max_retries, delay, last_error,
                )
                time.sleep(delay)
        raise BackendUnavailable(f"model endpoint failed after {self.max_retries} tries: {last_error}")


class ReplayModel(GenerativeModel):
    """Feeds back a recorded call sequence, in recorded order.

    Each call answers with the next recorded response and backend id,
    whatever its prompt or caller; a call past the end answers "" with the
    last recorded backend id.  Replay measures no call time, so
    ``run_holding_calls`` runs every batch one task at a time and the calls
    arrive in the order the trace holds them.
    """

    backend_id = "replay"

    def __init__(self, calls: list[ModelCall]):
        super().__init__()
        self._calls = iter(calls)
        self._overflow_backend = calls[-1].backend if calls else self.backend_id

    def sample_text(self, prompt: str, *, max_chars: int | None = None, caller: str = "") -> str:
        recorded = next(self._calls, None)
        if recorded is None:
            self._record(caller, prompt, "", self._overflow_backend)
            return ""
        self._record(caller, prompt, recorded.response, recorded.backend)
        return recorded.response

"""Language model backends behind one narrow sampling interface.

The engine only ever needs two operations: sample free text, and sample one
option from a fixed list.  Every call is recorded into the call list open in
the calling context (``open_calls``), and only there; the game master opens
each trace record's list for the span of that record, so a record holds the
complete prompt/response log of its turn, whichever backend answered.  A
call made with no list open is recorded nowhere.

ScriptedModel is the deterministic test backend: an ordered rule list and a
default response, whose answer depends on the prompt alone.  HttpModel
adapts any chat-completions endpoint and is never touched by the default
test suite.

``ask_all`` answers a batch of independent asks, each a prompt the caller
has already built, and yields the answers in ask order.  When the model is
slow enough for that to pay (``overlaps``) it issues them together on a
thread pool whose jobs make the model call and nothing else; building
prompts and applying answers stay on the calling thread.  ``PooledAsks``
is that pool path on its own: it issues asks now and yields their answers
when the caller asks for them, so the caller can do other work while the
calls are out, or can drop asks it turned out not to need.  A pool job
runs in a fresh, empty context, so it records nothing; its call is
recorded, on the caller's thread, as its answer is yielded.  So there is
one recording rule, whatever thread made a call: a call is recorded on the
calling thread, as it is made there or as its pooled answer is taken, and a
trace does not depend on which call came back first.
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
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

from .errors import BackendUnavailable, ConfigError, InvalidModelOutput, NoMatchingOption
from .kernel import ModelCall, parse_choice, replace_surrogates, writable

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

log = logging.getLogger(__name__)

# Crude budget bridge for backends that meter tokens rather than characters.
CHARS_PER_TOKEN = 4

# Re-asks after an answer that does not parse, on top of the first ask.
REPAIR_BUDGET = 3
_CHOICE_REPAIR = "Answer with exactly one of the options, verbatim."

# Asks go out in parallel only to a model whose measured wall time per call
# is at least this: below it the hand-offs between threads cost more than
# the overlap saves.
PARALLEL_MIN_CALL_S = 0.001
# Weight of the newest call in the moving average of call wall time.
CALL_TIME_WEIGHT = 0.1
# Upper bound on pool threads; they start only as batches need them.
POOL_MAX_WORKERS = 16

# The call list open in this context: a trace record's model calls.  A pool
# job's context is empty, so none is open there.
_call_slot: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "gabm_call_slot", default=None
)
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()

T = TypeVar("T")


def open_calls(calls: list[ModelCall]) -> contextvars.Token:
    """Record the model calls made in this context into ``calls`` until closed.

    The list stays open until ``close_calls`` gets the returned token,
    which reopens whatever list was open before.
    """
    return _call_slot.set(calls)


def close_calls(token: contextvars.Token) -> None:
    _call_slot.reset(token)


class GenerativeModel:
    """Base backend: subclasses implement ``_complete`` only."""

    backend_id = "abstract"

    def __init__(self):
        # Moving average of the wall time of _complete; None before any call.
        self.call_seconds: float | None = None

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        raise NotImplementedError

    def _record(self, caller: str, prompt: str, response: str, backend: str | None = None) -> None:
        calls = _call_slot.get()
        if calls is not None:
            calls.append(
                ModelCall(
                    caller=caller,
                    prompt=prompt,
                    response=response,
                    backend=self.backend_id if backend is None else backend,
                )
            )

    def sample_text(self, prompt: str, *, max_chars: int | None = None, caller: str = "") -> str:
        """The backend's answer to ``prompt``, recorded.  A surrogate code
        point in the answer, which no trace could hold, becomes U+FFFD."""
        start = time.perf_counter()
        response = replace_surrogates(self._complete(prompt, max_chars))
        elapsed = time.perf_counter() - start
        # Unlocked: a racing update loses one sample, which the gate,
        # ``overlaps``, tolerates.
        average = self.call_seconds
        self.call_seconds = (
            elapsed if average is None else average + CALL_TIME_WEIGHT * (elapsed - average)
        )
        self._record(caller, prompt, response)
        return response

    def sample_choice(
        self, prompt: str, options: list[str] | tuple[str, ...], *, caller: str = "", first: str | None = None
    ) -> tuple[int, str]:
        """Ask for one option; re-prompt on garbage, then give up.

        The first attempt sends the prompt as rendered by the caller, unless
        ``first`` is its answer, already asked.  Each repair attempt appends
        an explicit instruction to answer with exactly one option.  After
        the repair budget the last parse error propagates.
        """
        parse = functools.partial(parse_choice, options=options)
        return sample_repaired(self, prompt, parse, NoMatchingOption, _CHOICE_REPAIR, caller=caller, first=first)


def sample_repaired(
    model: GenerativeModel,
    prompt: str,
    parse: Callable[[str], T],
    error: type[Exception],
    repair: str,
    *,
    caller: str,
    first: str | None = None,
) -> T:
    """Ask and parse; on an ``error`` from ``parse``, add ``repair`` and ask again.

    ``first``, when given, is the answer to ``prompt``, already asked.  Each
    re-ask appends the repair line to the prompt so far, at most
    ``REPAIR_BUDGET`` times; the last answer's parse error propagates.  A
    failing model call is not retried.  No caught exception is kept: one
    held in a local would tie this frame and its callers into a cycle.
    """
    raw = model.sample_text(prompt, caller=caller) if first is None else first
    for _ in range(REPAIR_BUDGET):
        try:
            return parse(raw)
        except error:
            pass
        prompt = prompt + "\n" + repair
        raw = model.sample_text(prompt, caller=caller)
    return parse(raw)


def overlaps(model: GenerativeModel) -> bool:
    """Whether calls to ``model`` are worth issuing together: its measured
    wall time per call is at least ``PARALLEL_MIN_CALL_S``."""
    average = model.call_seconds
    return average is not None and average >= PARALLEL_MIN_CALL_S


def _shared_pool() -> ThreadPoolExecutor:
    # Imported here so a run that never goes parallel does not load it.
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=POOL_MAX_WORKERS, thread_name_prefix="gabm")
        return _pool


class PooledAsks:
    """``(prompt, caller)`` asks issued at once, one shared-pool job each.

    A job is the bare model call, made in a fresh, empty context, so it
    records nothing whichever context a Python build hands a new thread.
    ``answers`` records each call as it yields the response.
    """

    def __init__(self, model: GenerativeModel, asks: Sequence[tuple[str, str]]):
        pool = _shared_pool()
        self._model = model
        self.asks = list(asks)
        self._jobs = [
            pool.submit(contextvars.Context().run, model.sample_text, prompt, caller=caller)
            for prompt, caller in self.asks
        ]

    def wait(self) -> None:
        """Return once every job has finished, failed or not."""
        from concurrent.futures import wait

        wait(self._jobs)

    def answers(self) -> Iterator[str]:
        """Wait for every job, then yield the responses in ask order.

        Each call is recorded, under the model's ``backend_id``, into the
        call list open where its response is yielded.
        A failed ask raises at its turn, and the calls of later asks are
        never recorded.
        """
        self.wait()
        for (prompt, caller), job in zip(self.asks, self._jobs):
            response = job.result()
            self._model._record(caller, prompt, response)
            yield response


def ask_all(model: GenerativeModel, asks: Sequence[tuple[str, str]]) -> Iterator[str]:
    """Answer each ``(prompt, caller)`` ask; yield the responses in ask order.

    Each response is ``model.sample_text(prompt, caller=caller)``, and its
    recorded call joins the call list open where it is yielded, so the
    caller decides where in its own sequence each call appears.  A failing
    ask raises at its turn, and the calls of later asks are never recorded.
    With more than one ask and a model that ``overlaps``, every ask is
    issued together: the first on the calling thread, the rest as
    ``PooledAsks``, and all of them finish before the first response is
    yielded.  Otherwise each ask is made on the calling thread when its
    response is next.  Either way the calls recorded are the ones asking
    one at a time records.
    """
    if len(asks) < 2 or not overlaps(model):
        for prompt, caller in asks:
            yield model.sample_text(prompt, caller=caller)
        return
    # The first ask runs here, not on the pool: sending every ask of a batch
    # to the pool raised the market benchmark's serial rounds per turn from
    # 2.85-2.96 to 3.04-3.12 (``bench/run.py --workload market``, seeds
    # 41-44, 8 s runs, 2-core Intel Xeon VM).
    (prompt, caller), *rest = asks
    pooled = PooledAsks(model, rest)
    try:
        first = model.sample_text(prompt, caller=caller)
    finally:
        pooled.wait()
    yield first
    yield from pooled.answers()


def render_choice_prompt(prompt: str, options: list[str] | tuple[str, ...]) -> str:
    """Standard option footer appended to choice prompts."""
    listed = "\n".join(f"- {option}" for option in options)
    return f"{prompt}\nPick exactly one option:\n{listed}\nAnswer:"


@dataclass
class ScriptRule:
    """One response rule: a matcher and the reply.

    Exactly one of ``contains``, ``contains_all``, ``pattern`` must be set;
    ``contains_all`` is a non-empty list or tuple of strings, kept as a
    tuple.
    """

    response: str
    contains: str | None = None
    contains_all: tuple[str, ...] | None = None
    pattern: str | None = None

    def __post_init__(self):
        matchers = [m for m in (self.contains, self.contains_all, self.pattern) if m is not None]
        if len(matchers) != 1:
            raise ValueError("rule needs exactly one of contains / contains_all / pattern")
        if self.contains_all is not None:
            if not isinstance(self.contains_all, (list, tuple)) or not self.contains_all:
                raise ValueError("rule contains_all must be a non-empty list of strings")
            self.contains_all = tuple(self.contains_all)
        texts = [self.response, self.contains, self.pattern, *(self.contains_all or ())]
        if not all(isinstance(text, str) for text in texts if text is not None):
            raise ValueError("rule response and matchers must be strings")
        if not writable(self.response):
            raise ValueError(f"rule response {self.response!r} holds a lone surrogate; UTF-8 cannot write it")
        # Every prompt this rule matches contains its needle; "" for a
        # pattern, which names no text it must contain.
        if self.contains is not None:
            self._needle = self.contains
        elif self.contains_all is not None:
            self._needle = max(self.contains_all, key=len)
        else:
            self._needle = ""
            self._compiled = re.compile(self.pattern, re.DOTALL)

    def matches(self, prompt: str) -> bool:
        if self.contains is not None:
            return self.contains in prompt
        if self.contains_all is not None:
            return all(map(prompt.__contains__, self.contains_all))
        return self._compiled.search(prompt) is not None

    def to_dict(self) -> dict:
        data: dict = {"response": self.response}
        if self.contains is not None:
            data["contains"] = self.contains
        if self.contains_all is not None:
            data["contains_all"] = list(self.contains_all)
        if self.pattern is not None:
            data["pattern"] = self.pattern
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptRule":
        if unknown := data.keys() - {"response", "contains", "contains_all", "pattern"}:
            raise ValueError(f"a rule has an unknown key {min(unknown)!r}")
        return cls(
            response=data["response"],
            contains=data.get("contains"),
            contains_all=data.get("contains_all"),
            pattern=data.get("pattern"),
        )


_needle_of = attrgetter("_needle")


class ScriptedModel(GenerativeModel):
    """Deterministic backend driven by an ordered rule list.

    The first rule whose matcher hits the prompt answers; with no hit the
    default response answers.  A call only reads the rules, so an answer
    depends on the prompt alone, not on which calls came before it or on
    which thread, and pool threads share the model without a lock.

    A rule is tried only when its required needle is in the prompt: its
    ``contains`` text, the longest piece of its ``contains_all``, or "" for
    a ``pattern``.  No prompt a rule matches lacks its needle, so the
    answer is that of trying every rule in order.  ``rules`` is a plain
    list and may be changed between calls.
    """

    backend_id = "scripted"

    def __init__(self, rules: list[ScriptRule] | None = None, default_response: str = "pass"):
        super().__init__()
        self.rules = list(rules or [])
        self.default_response = default_response

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        rules = self.rules
        # The needle tests run in C and stop at the first rule that matches.
        for rule in compress(rules, map(prompt.__contains__, map(_needle_of, rules))):
            if rule.matches(prompt):
                return rule.response
        return self.default_response

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptedModel":
        if unknown := data.keys() - {"rules", "default"}:
            raise ValueError(f"the script has an unknown key {min(unknown)!r}")
        default = data.get("default", "pass")
        if not isinstance(default, str):
            raise ValueError("the default response must be a string")
        if not writable(default):
            raise ValueError(f"the default response {default!r} holds a lone surrogate; UTF-8 cannot write it")
        rules = data.get("rules", [])
        if not isinstance(rules, list):
            raise ValueError("rules must be a list")
        for i, rule in enumerate(rules):
            if not isinstance(rule, dict):
                raise ValueError(f"rule {i} must be an object")
        return cls(rules=[ScriptRule.from_dict(r) for r in rules], default_response=default)

    @classmethod
    def from_file(cls, path: str) -> "ScriptedModel":
        """The model a JSON rule file describes; a file that is missing or
        malformed raises ConfigError naming it."""
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            if not isinstance(data, dict):
                raise ValueError("the file must hold a JSON object")
            return cls.from_dict(data)
        except KeyError as exc:
            raise ConfigError(f"script file {path}: a rule has no {exc.args[0]!r}") from exc
        except (OSError, ValueError, TypeError, AttributeError, re.error) as exc:
            raise ConfigError(f"script file {path}: {exc}") from exc


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
    retries surfaces as BackendUnavailable.  A reply whose message content
    is not text, such as ``null``, raises InvalidModelOutput.
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
                content = reply.json()["choices"][0]["message"]["content"]
            except Exception as exc:  # noqa: BLE001 - any transport failure retries
                last_error = exc
            else:
                if not isinstance(content, str):
                    raise InvalidModelOutput(
                        f"model endpoint answered with {type(content).__name__} content, not text"
                    )
                return content
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
    whatever its prompt or caller.  A call past the end raises
    BackendUnavailable and records nothing, as a failed backend call does,
    so a run that ended ``error`` on a raised call replays to the same
    records and ending.  Replay measures no call time, so ``ask_all``
    makes every batch's calls one at a time, in ask order, which is the
    order the trace holds them in.
    """

    backend_id = "replay"

    def __init__(self, calls: list[ModelCall]):
        super().__init__()
        self._calls = iter(calls)

    def sample_text(self, prompt: str, *, max_chars: int | None = None, caller: str = "") -> str:
        recorded = next(self._calls, None)
        if recorded is None:
            raise BackendUnavailable("replay ran out of recorded model calls")
        self._record(caller, prompt, recorded.response, recorded.backend)
        return recorded.response

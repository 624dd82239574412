"""Language model backends behind one narrow sampling interface.

The engine only ever needs two operations: sample free text, and sample one
option from a fixed list.  Every call is recorded into the call list open in
the calling context (``open_calls``), and only there; the game master opens
each trace record's list for the span of that record, so a record holds the
complete prompt/response log of its turn, whichever backend answered.  A
call made with no list open is recorded nowhere.

ScriptedModel is the deterministic test backend: an ordered rule list with
per-rule consumption budgets and a default response.  HttpModel adapts any
chat-completions endpoint and is never touched by the default test suite.

``ask_all`` answers a batch of independent asks, each a prompt the caller
has already built, and yields the answers in ask order.  When the model is
slow enough for that to pay it issues them together on a thread pool whose
jobs make the model call and nothing else; building prompts and applying
answers stay on the calling thread.  Each call is recorded as its answer is
yielded, so a trace does not depend on which call came back first.
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

# ask_all issues asks in parallel only for a model whose measured wall time
# per call is at least this: below it the hand-offs between threads cost
# more than the overlap saves.
PARALLEL_MIN_CALL_S = 0.001
# Weight of the newest call in the moving average of call wall time.
CALL_TIME_WEIGHT = 0.1
# Upper bound on pool threads; they start only as batches need them.
POOL_MAX_WORKERS = 16

# The call list open in this context: a trace record's model calls, or the
# call of the pool job running here, held until ask_all hands it on.
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
        # Unlocked: a racing update loses one sample, which the gate in
        # ask_all tolerates.
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


def _shared_pool() -> ThreadPoolExecutor:
    # Imported here so a run that never goes parallel does not load it.
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=POOL_MAX_WORKERS, thread_name_prefix="gabm")
        return _pool


def _sample_holding(calls: list, model: GenerativeModel, prompt: str, caller: str) -> str:
    # A pool job: one model call, recorded into ``calls`` until handed over.
    token = open_calls(calls)
    try:
        return model.sample_text(prompt, caller=caller)
    finally:
        close_calls(token)


def ask_all(model: GenerativeModel, asks: Sequence[tuple[str, str]]) -> Iterator[str]:
    """Answer each ``(prompt, caller)`` ask; yield the responses in ask order.

    Each response is ``model.sample_text(prompt, caller=caller)``, and its
    recorded call joins the call list open where it is yielded, so the
    caller decides where in its own sequence each call appears.  A failing
    ask raises at its turn, and the calls of later asks are never recorded.
    With more than one ask and a model whose measured call time is at
    least ``PARALLEL_MIN_CALL_S``, every ask is issued together: the first
    on the calling thread, the rest as jobs on a shared thread pool that
    make that one call and nothing else, and all of them finish before the
    first response is yielded.  Otherwise each ask is made on the calling
    thread when its response is next.  Either way the calls recorded are
    the ones asking one at a time records.
    """
    average = model.call_seconds
    if len(asks) < 2 or average is None or average < PARALLEL_MIN_CALL_S:
        for prompt, caller in asks:
            yield model.sample_text(prompt, caller=caller)
        return
    from concurrent.futures import wait

    (prompt, caller), *rest = asks
    held: list[list] = [[] for _ in rest]
    pool = _shared_pool()
    jobs = [pool.submit(_sample_holding, calls, model, *ask) for calls, ask in zip(held, rest)]
    try:
        first = model.sample_text(prompt, caller=caller)
    finally:
        wait(jobs)
    yield first
    for calls, job in zip(held, jobs):
        open_list = _call_slot.get()
        if open_list is not None:
            open_list.extend(calls)
        yield job.result()


def render_choice_prompt(prompt: str, options: list[str] | tuple[str, ...]) -> str:
    """Standard option footer appended to choice prompts."""
    listed = "\n".join(f"- {option}" for option in options)
    return f"{prompt}\nPick exactly one option:\n{listed}\nAnswer:"


@dataclass
class ScriptRule:
    """One response rule: a matcher, the reply, and a consumption budget.

    Exactly one of ``contains``, ``contains_all``, ``pattern`` must be set;
    ``contains_all`` is a non-empty list or tuple of strings, kept as a
    tuple.  ``max_uses`` of None means the rule never exhausts.
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
        if self.contains_all is not None:
            if not isinstance(self.contains_all, (list, tuple)) or not self.contains_all:
                raise ValueError("rule contains_all must be a non-empty list of strings")
            self.contains_all = tuple(self.contains_all)
        texts = [self.response, self.contains, self.pattern, *(self.contains_all or ())]
        if not all(isinstance(text, str) for text in texts if text is not None):
            raise ValueError("rule response and matchers must be strings")
        if not writable(self.response):
            raise ValueError(f"rule response {self.response!r} holds a lone surrogate; UTF-8 cannot write it")
        if self.max_uses is not None and type(self.max_uses) is not int:
            raise ValueError("rule max_uses must be an integer")
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
        if self.max_uses is not None and self.uses >= self.max_uses:
            return False
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
        if self.max_uses is not None:
            data["max_uses"] = self.max_uses
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptRule":
        return cls(
            response=data["response"],
            contains=data.get("contains"),
            contains_all=data.get("contains_all"),
            pattern=data.get("pattern"),
            max_uses=data.get("max_uses"),
        )


_needle_of = attrgetter("_needle")


class ScriptedModel(GenerativeModel):
    """Deterministic backend driven by an ordered rule list.

    The first live rule whose matcher hits the prompt answers and consumes
    one use; with no hit the default response answers.  Apart from the
    per-rule counters the backend is stateless, so identical prompt
    sequences always produce identical response sequences.

    A rule is tried only when its required needle is in the prompt: its
    ``contains`` text, the longest piece of its ``contains_all``, or "" for
    a ``pattern``.  No prompt a rule matches lacks its needle, so the
    answer and the uses consumed are those of trying every rule in order.
    ``rules`` is a plain list and may be changed between calls.
    """

    backend_id = "scripted"

    def __init__(self, rules: list[ScriptRule] | None = None, default_response: str = "pass"):
        super().__init__()
        self.rules = list(rules or [])
        self.default_response = default_response
        self._lock = threading.Lock()

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        with self._lock:
            rules = self.rules
            # The needle tests run in C and stop at the first rule that matches.
            for rule in compress(rules, map(prompt.__contains__, map(_needle_of, rules))):
                if rule.matches(prompt):
                    rule.uses += 1
                    return rule.response
            return self.default_response

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptedModel":
        default = data.get("default", "pass")
        if not isinstance(default, str):
            raise ValueError("the default response must be a string")
        if not writable(default):
            raise ValueError(f"the default response {default!r} holds a lone surrogate; UTF-8 cannot write it")
        return cls(
            rules=[ScriptRule.from_dict(r) for r in data.get("rules", [])],
            default_response=default,
        )

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

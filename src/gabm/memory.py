"""Append-only associative memory with scored retrieval.

Each record carries text, a timestamp, a unit-norm embedding, an importance
weight, and its insertion index.  Retrieval ranks records by

    score = w_rel * cosine(query, record) + w_rec * exp(-lambda * age) + w_imp * importance

where age is measured in insertion steps from the newest record and lambda
is ln(2) divided by the recency half-life.  Ties prefer the more recent
insertion.

Retrieval is incremental and exact.  The bank is append-only and a
component asks the same query every step, so a bank keeps, for each of its
RELEVANCE_CACHE_QUERIES most recently used queries, the query's embedding
and its cosine against every record seen so far; beside them it keeps a
table of exp(-lambda * age) by age and a flat list of importances.  The
weights are applied at call time with the arithmetic of ``score``, so every
score is bit-equal to ``MemoryBank.score``.  Over a bank of n records, a
query not in the cache costs one embedding and n cosines; a cached query
costs one cosine per record added since its last call, plus O(n)
C-level multiplies and adds for the score vector and an O(n log k) heap for
the top k.

Embedding is memoized per process: ``HashEmbedder`` computes each distinct
text's vector once (16 SHA-256 digests at the default dimension) and every
bank, query and replay in the process shares it while it stays among the
EMBED_CACHE_TEXTS most recently embedded texts.  An observation delivered to
24 agents is hashed once, not 24 times; a stream of all-distinct texts, such
as a large initial memory list, misses every time and pays the full cost.

The bank is safe to share between threads: appends and retrievals take
its lock, so a retrieval sees every record added before it started.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import operator
import threading
from collections import OrderedDict
from functools import lru_cache
from dataclasses import dataclass
from datetime import datetime
from itertools import repeat
from typing import Callable, Protocol

NORM_TOLERANCE = 1e-9

DEFAULT_WEIGHTS = (1.0, 1.0, 1.0)
DEFAULT_HALF_LIFE = 100.0

# Queries per bank whose relevance vectors stay cached.  A component's
# query is fixed (its query text or the agent's name), so a bank sees few
# distinct queries; each cached one holds a float per record.
RELEVANCE_CACHE_QUERIES = 8

# Distinct texts whose embeddings stay memoized, shared by every
# HashEmbedder in the process.  Measured on the benchmark workloads (seed 1),
# distinct texts embedded per episode: crowd 159 (135 of its 6720 run-time
# calls), market 151 (31 of 190 at run time), recall 19 of 284 at run time;
# recall's 40k distinct initial memories stream through and miss.  An entry
# holds a vector that records made from the same text share.
EMBED_CACHE_TEXTS = 1024


class Embedder(Protocol):
    """Maps text to a fixed-dimension unit-norm vector, deterministically."""

    dimension: int

    def embed(self, text: str) -> tuple[float, ...]: ...


@lru_cache(maxsize=8)
def _coordinate_prefixes(dimension: int, seed: int) -> tuple:
    """Hash states after f"{seed}|{i}|" for each coordinate i, shared by
    every HashEmbedder with these settings; a memo miss only copies them."""
    return tuple(hashlib.sha256(f"{seed}|{i}|".encode()) for i in range(dimension))


@lru_cache(maxsize=EMBED_CACHE_TEXTS)
def _hash_embed(dimension: int, seed: int, text: str) -> tuple[float, ...]:
    """The HashEmbedder vector of ``text``, computed once per distinct
    (dimension, seed, text) while it stays in the memo."""
    encoded = text.encode()
    raw = []
    for prefix in _coordinate_prefixes(dimension, seed):
        digest = prefix.copy()
        digest.update(encoded)
        bucket = int.from_bytes(digest.digest()[:8], "big")
        raw.append(bucket / 2**63 - 1.0)
    norm = math.sqrt(sum(x * x for x in raw))
    if norm == 0.0:  # pragma: no cover - digest output is never all-zero buckets
        raw[0] = 1.0
        norm = 1.0
    return tuple(x / norm for x in raw)


class HashEmbedder:
    """Deterministic stand-in embedder for tests and scripted runs.

    Coordinates are derived from a SHA-256 digest of the seed, coordinate
    index, and text, then the vector is normalized.  Identical text always
    maps to the identical vector; there is no semantic structure.  Each
    distinct text is embedded once per process while it stays in the
    shared memo (EMBED_CACHE_TEXTS entries); a repeat returns the memoized
    tuple.
    """

    def __init__(self, dimension: int = 16, seed: int = 0):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.seed = seed

    def embed(self, text: str) -> tuple[float, ...]:
        return _hash_embed(self.dimension, self.seed, text)


def _check_unit_norm(embedding: tuple[float, ...]) -> None:
    norm = math.sqrt(sum(x * x for x in embedding))
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"embedding norm {norm!r} is not 1 within {NORM_TOLERANCE}")


def cosine(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    # Both vectors are unit-norm, so the dot product is the cosine.
    return sum(map(operator.mul, a, b))


@dataclass(frozen=True)
class MemoryRecord:
    text: str
    timestamp: datetime
    embedding: tuple[float, ...]
    importance: float
    index: int

    def __post_init__(self):
        if not 0.0 <= self.importance <= 1.0:
            raise ValueError("importance must lie in [0, 1]")
        _check_unit_norm(self.embedding)


class MemoryBank:
    """Append-only store of MemoryRecords for one agent or game master."""

    def __init__(
        self,
        embedder: Embedder | None = None,
        weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
        half_life: float = DEFAULT_HALF_LIFE,
        importance_scorer: Callable[[str], float] | None = None,
    ):
        if half_life <= 0:
            raise ValueError("half-life must be positive")
        self.embedder = embedder or HashEmbedder()
        self.weights = weights
        self.half_life = half_life
        self.decay = math.log(2.0) / half_life
        # Optional hook scoring importance of new text; defaults to 1.0.
        self.importance_scorer = importance_scorer
        self._records: list[MemoryRecord] = []
        self._lock = threading.Lock()
        # Retrieval state, extended lazily to cover every record (see module
        # docstring): query -> (query embedding, cosine per record), least
        # recently used first; exp(-decay * age) by age; importance per record.
        self._relevance: OrderedDict[str, tuple[tuple[float, ...], list[float]]] = OrderedDict()
        self._recency: list[float] = []
        self._importances: list[float] = []

    def __len__(self) -> int:
        return len(self._records)

    def add(self, text: str, timestamp: datetime, importance: float | None = None) -> int:
        """Append one record and return its id (== insertion index)."""
        if importance is None:
            if self.importance_scorer is not None:
                importance = min(1.0, max(0.0, self.importance_scorer(text)))
            else:
                importance = 1.0
        embedding = self.embedder.embed(text)
        with self._lock:
            record = MemoryRecord(
                text=text,
                timestamp=timestamp,
                embedding=embedding,
                importance=importance,
                index=len(self._records),
            )
            self._records.append(record)
            return record.index

    def snapshot(self) -> list[MemoryRecord]:
        with self._lock:
            return list(self._records)

    def score(self, query_embedding: tuple[float, ...], record: MemoryRecord, latest_index: int) -> float:
        w_rel, w_rec, w_imp = self.weights
        relevance = cosine(query_embedding, record.embedding)
        recency = math.exp(-self.decay * (latest_index - record.index))
        return w_rel * relevance + w_rec * recency + w_imp * record.importance

    def retrieve_associative(self, query: str, k: int) -> list[MemoryRecord]:
        """Top-k records by combined relevance, recency, and importance.

        Equal to ranking every record by ``score`` and breaking ties
        toward the more recent insertion.
        """
        if k <= 0:
            return []
        with self._lock:
            if not self._records:
                return []
            cached = self._relevance.get(query)
        if cached is None:
            cached = (self.embedder.embed(query), [])
        query_embedding, relevance = cached
        with self._lock:
            records = self._records
            n = len(records)
            self._relevance[query] = cached
            self._relevance.move_to_end(query)
            if len(self._relevance) > RELEVANCE_CACHE_QUERIES:
                self._relevance.popitem(last=False)
            relevance.extend(cosine(query_embedding, r.embedding) for r in records[len(relevance) : n])
            recency = self._recency
            recency.extend(math.exp(-self.decay * age) for age in range(len(recency), n))
            importances = self._importances
            importances.extend(r.importance for r in records[len(importances) : n])
            # score() for every record, term by term in the same order.
            w_rel, w_rec, w_imp = self.weights
            scores = list(
                map(
                    operator.add,
                    map(
                        operator.add,
                        map(operator.mul, repeat(w_rel), relevance),
                        map(operator.mul, repeat(w_rec), recency[n - 1 :: -1]),
                    ),
                    map(operator.mul, repeat(w_imp), importances),
                )
            )
            # Newest first: nlargest keeps the earlier of equal scores.
            top = heapq.nlargest(k, range(n - 1, -1, -1), key=scores.__getitem__)
            return [records[i] for i in top]

    def retrieve_recent(self, k: int) -> list[MemoryRecord]:
        """The k newest records, oldest of them first."""
        if k <= 0:
            return []
        with self._lock:
            return self._records[-k:]

    def texts(self) -> list[str]:
        return [r.text for r in self.snapshot()]


def importance_from_model(model, prompt_template: str) -> Callable[[str], float]:
    """Build an importance scorer that asks a model to rate each new memory.

    The template must contain ``{text}``.  Non-numeric answers fall back to
    1.0; numeric answers are clamped into [0, 1].
    """
    from .errors import NotANumber
    from .kernel import parse_float_token

    def scorer(text: str) -> float:
        raw = model.sample_text(
            prompt_template.replace("{text}", text), caller="memory:importance"
        )
        try:
            value = float(parse_float_token(raw))
        except NotANumber:
            return 1.0
        return min(1.0, max(0.0, value))

    return scorer

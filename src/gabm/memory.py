"""Append-only associative memory with scored retrieval.

Each record carries text, a timestamp, a unit-norm embedding, an importance
weight, and its insertion index.  Retrieval ranks records by

    score = w_rel * cosine(query, record) + w_rec * exp(-lambda * age) + w_imp * importance

where age is measured in insertion steps from the newest record and lambda
is ln(2) divided by the recency half-life.  Ties prefer the more recent
insertion.

Retrieval is incremental, exact and pruned.  The bank is append-only and a
component asks the same query every step, so a bank keeps, for each of its
RELEVANCE_CACHE_QUERIES most recently used queries, the query's embedding
and its cosine against every record seen so far; beside them it keeps a
table of exp(-lambda * age) by age and a flat list of importances.  The
records fall into blocks of BLOCK_RECORDS by insertion index, and each
cached query keeps the least and greatest cosine of every block, as the
bank does for importance; both are extended with the lists they summarize.
At call time the weights bound each block's best score with the arithmetic
of ``score``: a term takes the block's greatest value when its weight is
non-negative and its least otherwise, and the recency term that of the
block's newest or oldest record.  Rounded multiplication by a constant and
rounded addition are monotone, so no score in a block exceeds its bound.
Blocks are scored in descending order of bound, term by term as in
``score``, and the scan stops once k records are held and the next bound
is below the k-th score; a bound equal to it is still scored, because ties
prefer the newer record.  Every score is bit-equal to ``MemoryBank.score``
and the result is the full scan's.  Over a bank of n records, a query not
in the cache costs one embedding and n cosines, each over the query's
nonzero coordinates only; a cached query costs one cosine per record added
since its last call, O(n / BLOCK_RECORDS) work for the bounds, and the
scoring of each block it visits.  A query by an agent's name over its own
memories, where recency decides most of the order, visits the newest few.

The default embedder is a hashing bag-of-words (signed feature hashing,
Weinberger et al. 2009): each lower-case ``\\w+`` token adds +1 or -1 to one
coordinate, picked by its crc32, so texts that share words get related
vectors and the relevance term means something.  Embedding is memoized per
process: ``HashEmbedder`` computes each distinct text's vector once and
every bank, query and replay in the process shares it while it stays among
the EMBED_CACHE_TEXTS most recently embedded texts.  An observation
delivered to 24 agents is tokenized once, not 24 times; a stream of
all-distinct texts, such as a large initial memory list, misses every time
and pays one pass over its tokens per text.

The bank is safe to share between threads: appends and retrievals take
its lock, so a retrieval sees every record added before it started.
"""

from __future__ import annotations

import math
import operator
import re
import threading
import zlib
from collections import OrderedDict
from functools import lru_cache
from dataclasses import dataclass
from datetime import datetime
from itertools import compress, count, repeat
from typing import Iterable, Iterator, Protocol

NORM_TOLERANCE = 1e-9

_TOKEN_RE = re.compile(r"\w+")

DEFAULT_WEIGHTS = (1.0, 1.0, 1.0)
DEFAULT_HALF_LIFE = 100.0

# Queries per bank whose relevance vectors stay cached.  A component's
# query is fixed (its query text or the agent's name), so a bank sees few
# distinct queries; each cached one holds a float per record.
RELEVANCE_CACHE_QUERIES = 8

# Records per retrieval block.  A block whose score bound is below the k-th
# best score so far is never scored; larger blocks mean fewer bounds to
# sort per call and more records scored per visited block.  A bank of at
# most one block is scored whole, as without blocks.
BLOCK_RECORDS = 256

# Distinct texts whose embeddings stay memoized, shared by every
# HashEmbedder in the process.  Measured on the benchmark workloads (seed 1),
# distinct texts embedded per episode: crowd 159 (135 of its 6720 run-time
# calls), market 151 (31 of 190 at run time), recall 19 of 284 at run time;
# recall's 40k distinct initial memories stream through and miss, each miss
# one pass of the token loop.  An entry holds a vector that records made
# from the same text share.
EMBED_CACHE_TEXTS = 1024


class Embedder(Protocol):
    """Maps text to a fixed-dimension unit-norm vector, deterministically."""

    dimension: int

    def embed(self, text: str) -> tuple[float, ...]: ...


@lru_cache(maxsize=EMBED_CACHE_TEXTS)
def _hash_embed(dimension: int, seed: int, text: str) -> tuple[float, ...]:
    """The HashEmbedder vector of ``text``, computed once per distinct
    (dimension, seed, text) while it stays in the memo."""
    counts = [0] * dimension
    for token in _TOKEN_RE.findall(text.lower()):
        bucket = zlib.crc32(token.encode(), seed)
        counts[bucket % dimension] += -1 if bucket & 0x80000000 else 1
    # An int sum of squares is exact, so the norm is one correctly rounded
    # sqrt and the vector is the same on every Python version.
    squares = sum(count * count for count in counts)
    if not squares:
        return (1.0,) + (0.0,) * (dimension - 1)
    norm = math.sqrt(squares)
    embedding = tuple(count / norm for count in counts)
    _check_unit_norm(embedding)
    return embedding


class HashEmbedder:
    """Deterministic bag-of-words embedder for tests and scripted runs.

    Each lower-case ``\\w+`` token of the text hashes, by ``zlib.crc32``
    started at the seed, to coordinate ``crc % dimension``, and adds +1
    there, or -1 when bit 31 of the crc is set.  The int counts are divided
    by the square root of their int sum of squares, which is exact, so a
    vector is the same on every Python version.  A text with no tokens, or
    whose tokens cancel, maps to e_0.  Case and punctuation do not change
    the vector; texts that share words get related vectors.  Each distinct
    text is embedded once per process while it stays in the shared memo
    (EMBED_CACHE_TEXTS entries); a repeat returns the memoized tuple.
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


def _cosines(query: tuple[float, ...], embeddings: list[tuple[float, ...]]) -> Iterator[float]:
    """``cosine(query, e)`` for each of ``embeddings``, bit-equal, summed
    over the query's nonzero coordinates only.

    ``sum`` starts from +0.0, its running total is never -0.0, and adding
    ±0.0 to a total that is not -0.0 leaves it (and, on 3.12+, the
    compensation term) unchanged; so dropping the terms where the query is
    0.0 changes no bit, and a single remaining term sums to ``0.0 + q*e``.
    """
    nonzero = [i for i, q in enumerate(query) if q]
    if len(nonzero) == 1:
        (j,) = nonzero
        products = map(operator.mul, repeat(query[j]), map(operator.itemgetter(j), embeddings))
        return map(operator.add, repeat(0.0), products)
    if not nonzero or len(nonzero) == len(query):
        return map(cosine, repeat(query), embeddings)
    pick = operator.itemgetter(*nonzero)
    return map(cosine, repeat(pick(query)), map(pick, embeddings))


def _extend_block_bounds(values: list[float], lows: list[float], highs: list[float], start: int, block: int) -> None:
    """Make ``lows``/``highs`` the least/greatest of each ``block`` values,
    given that they already are for ``values[:start]``."""
    for b in range(start // block, -(-len(values) // block)):
        chunk = values[max(start, b * block) : (b + 1) * block]
        if b < len(lows):
            lows[b] = min(lows[b], *chunk)
            highs[b] = max(highs[b], *chunk)
        else:
            lows.append(min(chunk))
            highs.append(max(chunk))


def _weighted_sums(
    weights: tuple[float, float, float],
    relevance: Iterable[float],
    recency: Iterable[float],
    importance: Iterable[float],
) -> list[float]:
    """``w_rel*relevance + w_rec*recency + w_imp*importance`` elementwise,
    term by term in the float order of ``MemoryBank.score``."""
    w_rel, w_rec, w_imp = weights
    return list(
        map(
            operator.add,
            map(
                operator.add,
                map(operator.mul, repeat(w_rel), relevance),
                map(operator.mul, repeat(w_rec), recency),
            ),
            map(operator.mul, repeat(w_imp), importance),
        )
    )


def _score_block(
    weights: tuple[float, float, float],
    relevance: list[float],
    recency: list[float],
    importances: list[float],
    start: int,
    stop: int,
) -> list[float]:
    """The scores of records start..stop-1; record i has age n - 1 - i."""
    n = len(importances)
    return _weighted_sums(
        weights, relevance[start:stop], reversed(recency[n - stop : n - start]), importances[start:stop]
    )


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


class MemoryBank:
    """Append-only store of MemoryRecords for one agent or game master."""

    def __init__(
        self,
        embedder: Embedder | None = None,
        weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
        half_life: float = DEFAULT_HALF_LIFE,
    ):
        if half_life <= 0:
            raise ValueError("half-life must be positive")
        self.embedder = embedder or HashEmbedder()
        self.weights = weights
        self.half_life = half_life
        self.decay = math.log(2.0) / half_life
        self._records: list[MemoryRecord] = []
        self._lock = threading.Lock()
        # Retrieval state, extended lazily to cover every record (see module
        # docstring): query -> (query embedding, cosine per record, least and
        # greatest cosine per block), least recently used first;
        # exp(-decay * age) by age; importance per record, and its least and
        # greatest per block.
        self._relevance: OrderedDict[
            str, tuple[tuple[float, ...], list[float], list[float], list[float]]
        ] = OrderedDict()
        self._recency: list[float] = []
        self._importances: list[float] = []
        self._importance_lows: list[float] = []
        self._importance_highs: list[float] = []

    def __len__(self) -> int:
        return len(self._records)

    def add(self, text: str, timestamp: datetime, importance: float = 1.0) -> int:
        """Append one record and return its id (== insertion index)."""
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
            cached = (self.embedder.embed(query), [], [], [])
        query_embedding, relevance, relevance_lows, relevance_highs = cached
        block = BLOCK_RECORDS
        with self._lock:
            records = self._records
            n = len(records)
            self._relevance[query] = cached
            self._relevance.move_to_end(query)
            if len(self._relevance) > RELEVANCE_CACHE_QUERIES:
                self._relevance.popitem(last=False)
            start = len(relevance)
            if start < n:
                relevance.extend(_cosines(query_embedding, [r.embedding for r in records[start:n]]))
                _extend_block_bounds(relevance, relevance_lows, relevance_highs, start, block)
            recency = self._recency
            recency.extend(math.exp(-self.decay * age) for age in range(len(recency), n))
            importances = self._importances
            start = len(importances)
            if start < n:
                importances.extend(r.importance for r in records[start:n])
                _extend_block_bounds(importances, self._importance_lows, self._importance_highs, start, block)
            weights = self.weights
            w_rel, w_rec, w_imp = weights
            # Block b holds records b*block .. min(b*block + block, n) - 1,
            # visited best bound first; a lone block needs no bound.
            blocks = range(len(self._importance_lows))
            if len(blocks) > 1:
                # The recency table falls with age (neighbours differ by a
                # factor exp(-decay), more than a rounding step for any
                # half-life under about 1e15), so a block's newest record
                # has its greatest recency and its oldest the least.
                if w_rec >= 0:
                    ages = map(max, range(n - block, -block, -block), repeat(0))
                else:
                    ages = range(n - 1, -1, -block)
                bounds = _weighted_sums(
                    weights,
                    relevance_highs if w_rel >= 0 else relevance_lows,
                    map(recency.__getitem__, ages),
                    self._importance_highs if w_imp >= 0 else self._importance_lows,
                )
                blocks = sorted(blocks, key=bounds.__getitem__, reverse=True)
            # (score, index) of the best records scored so far, best first:
            # the order of the full scan, whose ties prefer the newer record.
            top: list[tuple[float, int]] = []
            for b in blocks:
                if len(top) >= k and bounds[b] < top[k - 1][0]:
                    break
                start = b * block
                scores = _score_block(weights, relevance, recency, importances, start, min(start + block, n))
                # Only a score at least the block's k-th best can make the top k.
                floor = sorted(scores)[-min(k, len(scores))]
                top += compress(zip(scores, count(start)), map(operator.ge, scores, repeat(floor)))
                top.sort(reverse=True)
                del top[k:]
            return [records[i] for _, i in top]

    def retrieve_recent(self, k: int) -> list[MemoryRecord]:
        """The k newest records, oldest of them first."""
        if k <= 0:
            return []
        with self._lock:
            return self._records[-k:]


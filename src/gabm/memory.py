"""Append-only associative memory with scored retrieval.

Each memory has a text, a timestamp, an embedding of int counts and its
insertion index.  Retrieval ranks memories by one fixed rule,

    score = cosine(query, record) + exp(-_DECAY * age) + IMPORTANCE

summed left to right, where age is measured in insertion steps from the
newest record, _DECAY is ln(2) / HALF_LIFE with a HALF_LIFE of 100
insertions, and IMPORTANCE is 1.0 for every record.  The three terms have
weight 1, as in Generative Agents (Park et al., 2023).  The constant
importance term still matters: adding it rounds the sum at magnitude 2 to 3,
which can tie two records that differed before, and ties prefer the more
recent insertion.

Retrieval is incremental, exact and pruned.  The bank is append-only and a
component asks the same query every step, so a bank keeps, for each of its
RELEVANCE_CACHE_QUERIES most recently used queries, the query's embedding
and its cosines, block by block.  The records fall into blocks of
BLOCK_RECORDS by insertion index; a block's cosines are computed the first
time a retrieval scores it, and extended with the records it has gained
since.  Each cached query keeps a cosine ceiling per block: the greatest
cosine of a block whose cosines are all known, else COSINE_CEILING, which
no cosine exceeds, rounding included.  At call
time a block's best score is bounded by the score rule applied to its
ceiling and the recency of its newest record, read from one table of
exp(-_DECAY * age) by age that every bank in the process shares.  Rounded
addition is monotone, so no score in a block exceeds its bound.  Blocks are
scored in descending order of bound, and the scan stops once k records are
held and the next bound is below the k-th score; a bound equal to it is
still scored, because ties prefer the newer record.  A block whose cosines
a retrieval fills is bounded again by its greatest cosine, now known, and
is not scored if that bound is below the k-th score.  Every score is
bit-equal to the rule above and the result is the full scan's.  Over a bank
of n records, a query not in the cache costs one embedding and the cosines
of the blocks it visits, each over the query's nonzero coordinates only; a
cached query costs the cosines of the records added since its last call to
the blocks it visits, O(n / BLOCK_RECORDS) work for the bounds, and the
scoring of each block it visits.  A query by an agent's name over its own
memories, where recency decides most of the order, visits the newest few.

The default embedder is a hashing bag-of-words (signed feature hashing,
Weinberger et al. 2009): each lower-case ``\\w+`` token adds +1 or -1 to one
coordinate, picked by the crc32 of its UTF-8 bytes, so texts that share
words get related vectors and the relevance term means something.  An
embedding is that tuple of int counts.  An ASCII text is tokenized in one
C pass with no regex: its bytes are translated, each word character to its
lower case and every other byte to a space, and split.  Any other text is
lowered and split by the regex, and each token encoded.  A bank keeps each
record's int sum of squares beside it, and a cosine is the exact int dot
product over one correctly rounded sqrt and one division,
``dot / sqrt(nq * nr)``, the same on every Python version.  Embedding is
memoized per process at two levels, both shared by every bank, query and
replay.  A token's coordinate and sign come from one table per (dimension,
seed), keyed by the token's bytes, which runs its crc32 the first time it
sees the token and is cleared when it holds TOKEN_TABLE_TOKENS tokens.  A
text's vector is computed once while it stays among the EMBED_CACHE_TEXTS
most recently embedded texts.  An observation delivered to 24 agents is
tokenized once, not 24 times; a stream of all-distinct texts, such as a
large initial memory list, misses the text memo every time and pays its
tokenizing and one table lookup per token: about 1.9 us a text of recall's
initial memories on a 2-core x86 VM.

A bank keeps its texts, timestamps and embeddings in three parallel lists,
its public read-only columns, indexed by the id ``add`` returns.  Both
retrievals return such ids, and a caller reads the columns at them; there
are no record objects.

A bank is not locked: the engine adds to it and retrieves from it on the
thread that runs the episode only, and only model calls go to other
threads.
"""

from __future__ import annotations

import math
import operator
import re
import zlib
from collections import OrderedDict
from functools import lru_cache
from datetime import datetime
from itertools import compress, count, repeat
from typing import Iterable, Iterator

_TOKEN_RE = re.compile(r"\w+")

# bytes.translate table for an ASCII text: each ASCII character ``\w``
# matches maps to its lower case and every other byte to a space, so the
# split of the translated bytes is the text's lower-case ``\w+`` tokens.
_ASCII_WORDS = bytes(
    ord(chr(c).lower()) if c < 128 and _TOKEN_RE.fullmatch(chr(c)) else 0x20 for c in range(256)
)

# The score's recency half-life, in insertions, and the importance every
# record carries.
HALF_LIFE = 100.0
IMPORTANCE = 1.0
_DECAY = math.log(2.0) / HALF_LIFE

# Queries per bank whose cosines stay cached.  A component's query is fixed
# (its query text or the agent's name), so a bank sees few distinct
# queries; each cached one holds a float per record of the blocks its
# retrievals have scored, and a ceiling per block.
RELEVANCE_CACHE_QUERIES = 8

# Records per retrieval block.  A block whose score bound is below the k-th
# best score so far is never scored; larger blocks mean fewer bounds to
# sort per call and more records scored per visited block.  A bank of at
# most one block is scored whole, as without blocks.
BLOCK_RECORDS = 256

# dot**2 <= nq * nr in ints; the int-to-float conversions, the sqrt and the
# division each round by at most 2**-53, so no cosine exceeds 1 + 2**-52 (and
# none exceeds 1.0 while nq * nr < 2**53, where the conversions are exact).
COSINE_CEILING = 1.0 + 2.0**-52

# Distinct texts whose embeddings stay memoized, shared by every
# HashEmbedder in the process.  Measured on the benchmark workloads (seed 1),
# distinct texts embedded per episode: crowd 159 (135 of its 6720 run-time
# calls), market 151 (31 of 190 at run time), recall 19 of 284 at run time;
# recall's 40k distinct initial memories stream through and miss, each miss
# a tokenizing (one bytes translate and split for an ASCII text) and one
# token-table lookup per token.  An entry holds a vector that every bank
# holding the same text shares.  The memo of sums of squares holds as many
# distinct vectors.
EMBED_CACHE_TEXTS = 1024

# Distinct tokens a token table holds before it is cleared and refilled.
# Recall's 40k initial memories (seed 1) hold 10,047 distinct tokens, 10,000
# of them the day numbers 0-9999, so its whole vocabulary fits with room to
# spare; an entry is a token's UTF-8 bytes and its (coordinate, sign) pair.
TOKEN_TABLE_TOKENS = 16384

# (dimension, seed) pairs whose token tables stay; a scenario embeds with one.
TOKEN_TABLES = 4


class _TokenTable(dict):
    """``(coordinate, sign)`` by token, as its UTF-8 bytes, for one
    (dimension, seed), each from the crc32 of those bytes on first use:
    coordinate ``crc % dimension``, sign -1 when bit 31 of the crc is set,
    else +1.  A table of TOKEN_TABLE_TOKENS tokens is cleared before the
    next is added; a thread that looks up a token a clear has dropped
    computes the same pair again."""

    __slots__ = ("dimension", "seed")

    def __init__(self, dimension: int, seed: int):
        super().__init__()
        self.dimension = dimension
        self.seed = seed

    def __missing__(self, token: bytes) -> tuple[int, int]:
        crc = zlib.crc32(token, self.seed)
        if len(self) >= TOKEN_TABLE_TOKENS:
            self.clear()
        pair = self[token] = (crc % self.dimension, -1 if crc & 0x80000000 else 1)
        return pair


@lru_cache(maxsize=TOKEN_TABLES)
def _token_table(dimension: int, seed: int) -> _TokenTable:
    return _TokenTable(dimension, seed)


def _tokens(text: str) -> list[bytes]:
    """The lower-case ``\\w+`` tokens of ``text``, each as its UTF-8 bytes:
    one bytes translate and split over an ASCII text, the regex over any
    other."""
    if text.isascii():
        return text.encode().translate(_ASCII_WORDS).split()
    return [token.encode() for token in _TOKEN_RE.findall(text.lower())]


@lru_cache(maxsize=EMBED_CACHE_TEXTS)
def _hash_embed(dimension: int, seed: int, text: str) -> tuple[int, ...]:
    """The HashEmbedder counts of ``text``, computed once per distinct
    (dimension, seed, text) while it stays in the memo."""
    counts = [0] * dimension
    for coordinate, sign in map(_token_table(dimension, seed).__getitem__, _tokens(text)):
        counts[coordinate] += sign
    if not any(counts):
        counts[0] = 1
    return tuple(counts)


class HashEmbedder:
    """Deterministic bag-of-words embedder for tests and scripted runs.

    Each lower-case ``\\w+`` token of the text hashes, by ``zlib.crc32`` of
    its UTF-8 bytes started at the seed, to coordinate ``crc % dimension``,
    and adds +1 there, or -1 when bit 31 of the crc is set; the vector is
    the tuple of those int counts.  An ASCII text is tokenized by one bytes
    translate and split, any other by the regex (see ``_tokens``).  A text
    with no tokens, or whose tokens cancel, maps to e_0,
    ``(1, 0, ..., 0)``.  Case and punctuation do not change the vector;
    texts that share words get related vectors.  Each distinct
    text is embedded once per process while it stays in the shared memo
    (EMBED_CACHE_TEXTS entries); a repeat returns the memoized tuple.  Each
    distinct token's crc32 runs once while the shared token table of the
    dimension and seed holds it (TOKEN_TABLE_TOKENS entries).
    """

    def __init__(self, dimension: int = 16, seed: int = 0):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.seed = seed

    def embed(self, text: str) -> tuple[int, ...]:
        return _hash_embed(self.dimension, self.seed, text)


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(map(operator.mul, a, b))


@lru_cache(maxsize=EMBED_CACHE_TEXTS)
def _sum_of_squares(embedding: tuple[int, ...]) -> int:
    """``embedding``'s int sum of squares, computed once per distinct vector
    while it stays in the memo: an observation added to 24 banks, or a
    memory list built again, pays for it once."""
    return _dot(embedding, embedding)


def _cosines(query: tuple[int, ...], embeddings: list[tuple[int, ...]], squares: list[int]) -> Iterator[float]:
    """``dot / sqrt(nq * nr)`` for each of ``embeddings``, whose sums of
    squares ``nr`` are ``squares``; the int dot product runs over the
    query's nonzero coordinates only."""
    nonzero = [i for i, q in enumerate(query) if q]
    if len(nonzero) == 1:
        (j,) = nonzero
        dots = map(operator.mul, repeat(query[j]), map(operator.itemgetter(j), embeddings))
    else:
        pick = operator.itemgetter(*nonzero)
        dots = map(_dot, repeat(pick(query)), map(pick, embeddings))
    norms = map(math.sqrt, map(operator.mul, repeat(_sum_of_squares(query)), squares))
    return map(operator.truediv, dots, norms)


# exp(-_DECAY * age) by age, for every bank in the process: it depends on
# the age alone.  It grows geometrically and is rebound, never changed in
# place, so a thread that races another to grow it computes equal values
# and either table serves.
_recency: tuple[float, ...] = ()


def _recency_table(n: int) -> tuple[float, ...]:
    """The shared recency table, grown to cover every age below ``n``."""
    global _recency
    table = _recency
    if len(table) < n:
        table += tuple(math.exp(-_DECAY * age) for age in range(len(table), max(n, 2 * len(table))))
        _recency = table
    return table


def _scores(relevance: Iterable[float], recency: Iterable[float]) -> list[float]:
    """``(relevance + recency) + IMPORTANCE`` elementwise, the score's float
    order."""
    return list(map(operator.add, map(operator.add, relevance, recency), repeat(IMPORTANCE)))


def _score_block(cosines: list[float], recency: tuple[float, ...], start: int, n: int) -> list[float]:
    """The scores of records start.. of a bank of ``n`` records, one per
    cosine in ``cosines``; record i has age ``n - 1 - i``."""
    stop = start + len(cosines)
    return _scores(cosines, reversed(recency[n - stop : n - start]))


class _CachedQuery:
    """One query's retrieval state in a bank (see module docstring)."""

    __slots__ = ("embedding", "cosines", "highs", "ceilings", "seen")

    def __init__(self, embedding: tuple[int, ...]):
        self.embedding = embedding
        # Per block: the cosines of its first records, and the greatest of
        # them, so a block that gains records needs only their maximum.
        self.cosines: list[list[float]] = []
        self.highs: list[float] = []
        # Per block: its high once every record's cosine is known, else
        # COSINE_CEILING; no cosine of the block is above it.
        self.ceilings: list[float] = []
        self.seen = 0  # the bank's size when the ceilings were last extended


class MemoryBank:
    """Append-only memory of one agent.

    The bank keeps the texts, timestamps and embeddings of its memories in
    three parallel lists, ``texts``, ``timestamps`` and ``embeddings``, each
    indexed by the id ``add`` returns.  Read them, never change them.  Both
    retrievals return ids into these columns.  Any ``embedder`` whose
    ``embed(text)`` returns a tuple of int counts, not all 0, serves.
    """

    def __init__(self, embedder: HashEmbedder | None = None):
        self.embedder = embedder or HashEmbedder()
        self.texts: list[str] = []
        self.timestamps: list[datetime] = []
        self.embeddings: list[tuple[int, ...]] = []
        self._squares: list[int] = []  # each embedding's int sum of squares
        # Each recently used query's retrieval state (see module docstring),
        # least recently used first.
        self._queries: OrderedDict[str, _CachedQuery] = OrderedDict()

    def __len__(self) -> int:
        return len(self.texts)

    def add(self, text: str, timestamp: datetime) -> int:
        """Append one memory and return its id (== insertion index)."""
        embedding = self.embedder.embed(text)
        index = len(self.texts)
        self.texts.append(text)
        self.timestamps.append(timestamp)
        self.embeddings.append(embedding)
        self._squares.append(_sum_of_squares(embedding))
        return index

    def retrieve_associative(self, query: str, k: int) -> list[int]:
        """The ids of the top-k memories by combined relevance, recency, and
        importance, best first.

        Equal to ranking every memory by the module docstring's score and
        breaking ties toward the more recent insertion.
        """
        embeddings = self.embeddings
        if k <= 0 or not embeddings:
            return []
        cached = self._queries.get(query)
        if cached is None:
            cached = _CachedQuery(self.embedder.embed(query))
        self._queries[query] = cached
        self._queries.move_to_end(query)
        if len(self._queries) > RELEVANCE_CACHE_QUERIES:
            self._queries.popitem(last=False)
        cosines, highs, ceilings = cached.cosines, cached.highs, cached.ceilings
        n = len(embeddings)
        block = BLOCK_RECORDS
        if cached.seen < n:
            # Records from ``seen`` on have no cosines yet: the blocks that
            # hold them are bounded by the ceiling until they are scored.
            first = cached.seen // block
            del ceilings[first:]
            ceilings.extend(repeat(COSINE_CEILING, -(-n // block) - first))
            while len(cosines) < len(ceilings):
                cosines.append([])
                highs.append(-math.inf)
            cached.seen = n
        recency = _recency_table(n)
        # Block b holds records b*block .. min(b*block + block, n) - 1,
        # visited best bound first; a lone block needs no bound.  The
        # recency table does not rise with age, so a block's newest record,
        # at age max(n - b*block - block, 0), has its greatest.
        blocks = range(len(ceilings))
        if len(blocks) > 1:
            ages = map(max, range(n - block, -block, -block), repeat(0))
            bounds = _scores(ceilings, map(recency.__getitem__, ages))
            blocks = sorted(blocks, key=bounds.__getitem__, reverse=True)
        # (score, index) of the best records scored so far, best first: the
        # order of the full scan, whose ties prefer the newer record.
        top: list[tuple[float, int]] = []
        for b in blocks:
            if len(top) >= k and bounds[b] < top[k - 1][0]:
                break
            start = b * block
            known = cosines[b]
            if len(known) < min(block, n - start):
                new = slice(start + len(known), start + block)
                fresh = list(_cosines(cached.embedding, embeddings[new], self._squares[new]))
                known += fresh
                ceilings[b] = highs[b] = max(highs[b], *fresh)
                # Bounded again by its greatest cosine, now known: a block
                # whose bound is below the k-th score cannot enter the top k
                # (one equal to it can, as ties prefer the newer record).
                bound = highs[b] + recency[max(n - start - block, 0)] + IMPORTANCE
                if len(top) >= k and bound < top[k - 1][0]:
                    continue
            scores = _score_block(known, recency, start, n)
            # Only a score at least the block's k-th best can make the top k.
            floor = sorted(scores)[-min(k, len(scores))]
            top += compress(zip(scores, count(start)), map(operator.ge, scores, repeat(floor)))
            top.sort(reverse=True)
            del top[k:]
        return [i for _, i in top]

    def retrieve_recent(self, k: int) -> range:
        """The ids of the k newest memories, oldest of them first."""
        n = len(self.texts)
        return range(max(n - max(k, 0), 0), n)

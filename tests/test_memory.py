from __future__ import annotations

import math
import random
import re
import sys
import threading
import zlib
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gabm import memory
from gabm.memory import (
    EMBED_CACHE_TEXTS,
    HALF_LIFE,
    IMPORTANCE,
    RELEVANCE_CACHE_QUERIES,
    HashEmbedder,
    MemoryBank,
)

from conftest import oracle_settings

T0 = datetime(2024, 5, 1, 9, 0)


class AxisEmbedder:
    """Maps listed texts to fixed int count tuples; everything else to e0."""

    def __init__(self, mapping: dict[str, tuple[int, ...]], dimension: int = 4):
        self.mapping = mapping
        self.dimension = dimension

    def embed(self, text: str):
        if text in self.mapping:
            return self.mapping[text]
        return (1,) + (0,) * (self.dimension - 1)


def relevance(query: tuple[int, ...], record: tuple[int, ...]) -> float:
    """The cosine of two int count vectors: the exact int dot product over
    one correctly rounded sqrt and one division."""
    dot = sum(a * b for a, b in zip(query, record))
    return dot / math.sqrt(sum(a * a for a in query) * sum(b * b for b in record))


def test_hash_embedder_is_deterministic_and_unit_norm():
    embedder = HashEmbedder(dimension=16, seed=3)
    a = embedder.embed("the pub is snowed in")
    b = embedder.embed("the pub is snowed in")
    c = embedder.embed("something else")
    assert a == b
    assert a != c
    assert all(type(x) is int for x in a + c)
    # Scoring divides by the norm: a vector's cosine with itself is 1.0.
    assert list(memory._cosines(a, [a], [sum(x * x for x in a)])) == [1.0]


def test_insertion_indices_strictly_increase():
    bank = MemoryBank()
    ids = [bank.add(f"memory {i}", T0 + timedelta(minutes=i)) for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    assert list(bank.retrieve_recent(len(bank))) == ids


def test_retrieval_scores_match_hand_computed_table():
    # Three records, half-life 100 insertions, importance 1.  Expected
    # scores frozen from independent arithmetic, cos + 2**(-age/100) + 1:
    #   rec0: cos=1.0, age 2 -> 2.9862327044933592
    #   rec1: cos=0.0, age 1 -> 1.9930924954370359
    #   rec2: cos=0.6, age 0 -> 2.6
    # (3, 4) against (1, 0) is 3 / sqrt(25), exactly 0.6.
    embedder = AxisEmbedder(
        {
            "query": (1, 0, 0, 0),
            "rec0": (1, 0, 0, 0),
            "rec1": (0, 1, 0, 0),
            "rec2": (3, 4, 0, 0),
        }
    )
    bank = MemoryBank(embedder=embedder)
    for text in ("rec0", "rec1", "rec2"):
        bank.add(text, T0)
    retrieved = bank.retrieve_associative("query", k=3)
    assert [bank.texts[i] for i in retrieved] == ["rec0", "rec2", "rec1"]
    # The scores the retrieval compared, from the bank's cosines and the
    # process's recency table.
    (cosines,) = bank._queries["query"].cosines
    got = memory._score_block(cosines, memory._recency, 0, 3)
    assert got == pytest.approx([2.9862327044933592, 1.9930924954370359, 2.6], abs=1e-12)


def squares_summing_to(total: int) -> list[int]:
    """Ints whose squares sum to ``total``, each the largest that fits."""
    parts = []
    while total:
        parts.append(math.isqrt(total))
        total -= parts[-1] ** 2
    return parts


def tie_bank(holds) -> MemoryBank:
    """A bank of "old" then "new" under the query e0, where "new" is
    orthogonal to it and "old" is the first record, in a fixed search
    order, whose cosine satisfies ``holds``.  The search tries
    ``(x, *squares_summing_to(s))`` for x = 1, 2, ..., whose cosine is
    x / sqrt(x*x + s), at the three s nearest the one that puts it at
    1 - recency of age 1."""
    target = 1.0 - math.exp(-math.log(2.0) / HALF_LIFE)
    for x in range(1, 100_000):
        nearest = round(x * x * (1.0 / target**2 - 1.0))
        for s in (nearest - 1, nearest, nearest + 1):
            old = (x, *squares_summing_to(s))
            if holds(relevance((1,), old)):
                zeros = (0,) * (len(old) - 2)
                embedder = AxisEmbedder({"query": (1, 0) + zeros, "old": old, "new": (0, 1) + zeros})
                bank = MemoryBank(embedder=embedder)
                bank.add("old", T0)
                bank.add("new", T0)
                return bank
    raise AssertionError("no record found")


def test_equal_scores_prefer_recent_insertion():
    # The older record's cosine makes up what its recency lost: both sums
    # round to 1.0 before the importance term and to 2.0 after it.
    recency = math.exp(-math.log(2.0) / HALF_LIFE)
    bank = tie_bank(lambda cos: cos + recency == 0.0 + 1.0)
    old = relevance(bank.embedder.embed("query"), bank.embeddings[0])
    assert relevance(bank.embedder.embed("query"), bank.embeddings[1]) == 0.0
    assert old + recency == 0.0 + 1.0
    assert [bank.texts[i] for i in bank.retrieve_associative("query", k=2)] == ["new", "old"]


def test_scores_tied_only_by_the_importance_term_prefer_the_newer_record():
    # Before the importance term the older record is one ulp ahead,
    # 1 + 2**-52 against the newer's 0 + 1.0; adding IMPORTANCE rounds both
    # to 2.0, and the tie goes to the newer record.  Without the term the
    # older one would rank first.
    recency = math.exp(-math.log(2.0) / HALF_LIFE)
    ahead = math.nextafter(1.0, 2.0)
    bank = tie_bank(lambda cos: cos + recency == ahead)
    old = relevance(bank.embedder.embed("query"), bank.embeddings[0])
    assert relevance(bank.embedder.embed("query"), bank.embeddings[1]) == 0.0
    assert old + recency == ahead > 0.0 + 1.0
    assert ahead + IMPORTANCE == 1.0 + IMPORTANCE
    assert [bank.texts[i] for i in bank.retrieve_associative("query", k=2)] == ["new", "old"]
    assert [bank.texts[i] for i in bank.retrieve_associative("query", k=1)] == ["new"]


def test_k_covers_edge_sizes():
    bank = MemoryBank()
    assert bank.retrieve_associative("anything", k=3) == []
    bank.add("only one", T0)
    assert [bank.texts[i] for i in bank.retrieve_associative("q", k=10)] == ["only one"]
    assert bank.retrieve_associative("q", k=0) == []


def test_retrieve_recent_is_oldest_first_window():
    bank = MemoryBank()
    for i in range(5):
        bank.add(f"m{i}", T0 + timedelta(minutes=i))
    assert [bank.texts[i] for i in bank.retrieve_recent(3)] == ["m2", "m3", "m4"]
    assert [bank.texts[i] for i in bank.retrieve_recent(99)] == [f"m{i}" for i in range(5)]
    assert list(bank.retrieve_recent(0)) == []


def oracle_score(query_embedding, embedding, age: int) -> float:
    """The scoring rule in plain arithmetic, one memory at a time."""
    recency = math.exp(-(math.log(2.0) / HALF_LIFE) * age)
    return relevance(query_embedding, embedding) + recency + IMPORTANCE


def brute_force_rank(bank: MemoryBank, query: str, k: int) -> list[int]:
    """Independent oracle: full scan, then the documented order, best score
    first and equal scores newest first."""
    if not len(bank) or k <= 0:
        return []
    query_embedding = bank.embedder.embed(query)
    latest = len(bank) - 1
    scored = [
        (oracle_score(query_embedding, embedding, latest - index), index)
        for index, embedding in enumerate(bank.embeddings)
    ]
    return [index for _, index in sorted(scored, reverse=True)[:k]]


def test_ranking_agrees_with_brute_force_oracle():
    rng = random.Random(77)
    for trial in range(10):
        bank = MemoryBank(embedder=HashEmbedder(dimension=8, seed=trial))
        for i in range(rng.randrange(1, 60)):
            bank.add(f"memory {rng.randrange(20)}", T0 + timedelta(minutes=i))
        k = rng.randrange(1, len(bank) + 5)
        query = f"query {rng.randrange(10)}"
        got = bank.retrieve_associative(query, k)
        assert got == brute_force_rank(bank, query, k)


def test_cosine_of_unit_vectors():
    assert list(memory._cosines((1, 0), [(0, 1), (1, 0), (-1, 0)], [1, 1, 1])) == [0.0, 1.0, -1.0]


def reference_counts(dimension: int, seed: int, text: str) -> list[int]:
    tokens = re.findall(r"\w+", text.lower())
    counts = [0] * dimension
    for token in tokens:
        crc = zlib.crc32(token.encode("utf-8"), seed)
        sign = -1 if crc >= 2**31 else 1
        counts[crc % dimension] += sign
    return counts


def reference_hash_embed(dimension: int, seed: int, text: str) -> tuple[int, ...]:
    """The token spec, one step at a time: each lower-case \\w+ token adds
    +1 or -1 to one coordinate, from its crc32 started at the seed; a text
    whose counts are all 0 maps to the first axis."""
    counts = reference_counts(dimension, seed, text)
    if all(count == 0 for count in counts):
        return tuple(1 if i == 0 else 0 for i in range(dimension))
    return tuple(counts)


def test_hash_embedder_golden_vectors():
    # Frozen from the token-hashing embedder: int counts, the same on every
    # Python version.  At seed 0, "met" and "the" land in the same
    # coordinate with opposite signs and cancel; the snowman is no token.
    assert HashEmbedder(dimension=4, seed=3).embed("the pub is snowed in") == (2, 0, 0, 1)
    assert HashEmbedder().embed("Alice met Bob at the mill.") == (
        -1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0,
    )
    assert HashEmbedder().embed("\u00dcn\u00efc\u00f6d\u00e9 \u2603 text") == (
        0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0,
    )
    # Capitals, digits and "_" are word characters; the apostrophe and the
    # unit separator split words.
    text = "Ada's 3rd_Cart\x1fBELL 42"
    assert memory._tokens(text) == [b"ada", b"s", b"3rd_cart", b"bell", b"42"]
    assert HashEmbedder().embed(text) == (
        0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0,
    )


# Every ASCII code point, and a few other characters, so that texts take
# both tokenizer paths: "\u212a" (Kelvin sign) lowers to an ASCII "k",
# "\u0130" lowers to two code points, "\u0663" is a digit.
ASCII = st.characters(max_codepoint=127)
NON_ASCII = st.sampled_from(
    ["\u00e9", "\u00dc", "\u00df", "\u0130", "\u212a", "\u017f", "\u0663", "\u2603", "\u00a0"]
)


@oracle_settings(300)
@given(text=st.text(ASCII, max_size=40) | st.text(ASCII | NON_ASCII, max_size=40))
def test_tokens_match_the_findall_oracle(text):
    assert memory._tokens(text) == [token.encode() for token in re.findall(r"\w+", text.lower())]


def test_case_and_punctuation_do_not_change_the_vector():
    embedder = HashEmbedder()
    plain = embedder.embed("alice met bob at the mill")
    assert embedder.embed("Alice met Bob at the mill.") == plain
    assert embedder.embed("ALICE -- met BOB, at the mill?!") == plain
    assert embedder.embed("  alice\tmet\nbob at the   mill ") == plain


# At seed 0, "met" and "the" add opposite signs to one coordinate.
@pytest.mark.parametrize("text", ["", "!!", " ... \u2603 ", "met the"])
def test_a_text_without_tokens_or_whose_tokens_cancel_embeds_to_the_first_axis(text):
    assert HashEmbedder().embed(text) == (1,) + (0,) * 15
    assert HashEmbedder(dimension=1).embed(text) == (1,)


def test_a_query_by_name_ranks_the_records_that_mention_it_first():
    # The records sharing the query's one word come first: over nine records
    # recency spans under 0.06, less than any gap in relevance here.  With
    # 16 coordinates another word can share the name's coordinate and
    # add to or cancel it, so this holds for a name whose coordinate the
    # other words here leave alone, as "ada"'s at seed 0.
    texts = [
        "Ada mended the lantern at the mill.",
        "Bruno sold a copper ring to Cyra.",
        "Cyra found three letters at the ferry.",
        "Ada counted the ledger twice.",
        "Dmitri painted the bell rope.",
        "Bruno borrowed a fishing net from Ada.",
        "Edda buried the old map in the orchard.",
        "The harvest fair was loud.",
        "ADA, at last, sold the blue kettle!",
    ]
    bank = MemoryBank()
    for text in texts:
        bank.add(text, T0)
    mentions = {i for i, text in enumerate(texts) if "ada" in text.lower()}
    ranked = bank.retrieve_associative("Ada", len(texts))
    assert set(ranked[: len(mentions)]) == mentions


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=40), dimension=st.integers(1, 24), seed=st.integers(0, 5))
def test_hash_embedder_matches_reference(text, dimension, seed):
    assert HashEmbedder(dimension=dimension, seed=seed).embed(text) == reference_hash_embed(
        dimension, seed, text
    )


@settings(max_examples=20, deadline=None)
@given(
    texts=st.lists(st.text(max_size=20), min_size=1, max_size=12),
    repeats=st.lists(st.integers(0, 11), max_size=20),
    dimension_seed=st.sampled_from([(16, 0), (16, 1), (4, 3), (24, 5)]),
)
def test_memoized_vectors_match_reference_through_repeats_and_eviction(texts, repeats, dimension_seed):
    dimension, seed = dimension_seed
    embedder = HashEmbedder(dimension=dimension, seed=seed)
    order = texts + [texts[i % len(texts)] for i in repeats]
    expected = [reference_hash_embed(dimension, seed, text) for text in order]
    assert [embedder.embed(text) for text in order] == expected
    # More distinct texts than the memo holds push every text above out.
    for i in range(EMBED_CACHE_TEXTS + 1):
        embedder.embed(f"filler {i}")
    misses = memory._hash_embed.cache_info().misses
    assert [embedder.embed(text) for text in order] == expected
    assert memory._hash_embed.cache_info().misses - misses == len(set(order))


def test_threads_embedding_the_same_texts_get_equal_vectors():
    texts = [f"shared text {i}" for i in range(300)]
    memory._hash_embed.cache_clear()
    start = threading.Barrier(8)
    results: list[list[tuple[int, ...]]] = []

    def embedder_thread():
        embedder = HashEmbedder()
        start.wait()
        results.append([embedder.embed(text) for text in texts])

    threads = [threading.Thread(target=embedder_thread) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    expected = [reference_hash_embed(16, 0, text) for text in texts]
    assert all(vectors == expected for vectors in results)


def test_a_full_token_table_is_cleared_and_its_vectors_stay_exact(monkeypatch):
    # More distinct tokens than a table of 8 holds, in texts that repeat
    # tokens across the clears.
    monkeypatch.setattr(memory, "TOKEN_TABLE_TOKENS", 8)
    memory._token_table.cache_clear()
    memory._hash_embed.cache_clear()
    embedder = HashEmbedder(dimension=16, seed=2)
    table = memory._token_table(16, 2)
    texts = [f"w{i} w{i + 1} w{2 * i} shared w{i} day {i % 5}" for i in range(60)]
    for text in texts:
        assert embedder.embed(text) == reference_hash_embed(16, 2, text)
        assert 0 < len(table) <= 8
    tokens = {token for text in texts for token in re.findall(r"\w+", text)}
    assert len(tokens) > 8 * 5


def test_threads_embedding_through_a_small_token_table_get_reference_vectors(monkeypatch):
    # Four threads share the token table and the text memo; the table is
    # bound small, so clears race with lookups, and each thread embeds
    # texts the others embed too and texts of its own.
    monkeypatch.setattr(memory, "TOKEN_TABLE_TOKENS", 16)
    memory._token_table.cache_clear()
    memory._hash_embed.cache_clear()
    shared = [f"shared {i} bell {i * 7} mill" for i in range(200)]
    start = threading.Barrier(4)
    results: dict[int, list[tuple[str, tuple[int, ...]]]] = {}

    def embedder_thread(n: int):
        embedder = HashEmbedder()
        own = [f"thread {n} text {i} lantern {i * 3}" for i in range(200)]
        start.wait()
        results[n] = [(text, embedder.embed(text)) for pair in zip(shared, own) for text in pair]

    threads = [threading.Thread(target=embedder_thread, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == [0, 1, 2, 3]
    for vectors in results.values():
        assert len(vectors) == 400
        assert all(vector == reference_hash_embed(16, 0, text) for text, vector in vectors)


def test_an_id_reads_back_what_was_added_and_retrievals_return_ids():
    rng = random.Random(3)
    bank = MemoryBank()
    added = []
    for i in range(700):
        text = " ".join(rng.choices(WORDS, k=rng.randrange(1, 5)))
        moment = T0 + timedelta(minutes=i)
        assert bank.add(text, moment) == i
        added.append((text, moment, HashEmbedder().embed(text)))
    assert list(zip(bank.texts, bank.timestamps, bank.embeddings)) == added
    for k in (-1, 0):
        assert list(bank.retrieve_recent(k)) == []
        assert bank.retrieve_associative("ada", k) == []
    assert list(bank.retrieve_recent(30)) == list(range(670, 700))
    assert list(bank.retrieve_recent(len(bank) + 5)) == list(range(700))
    for query in ("ada", "the mill", ""):
        assert bank.retrieve_associative(query, 25) == brute_force_rank(bank, query, 25)
        assert sorted(bank.retrieve_associative(query, len(bank) + 5)) == list(range(700))


def test_fanned_out_text_is_digested_once(monkeypatch):
    # One observation reaching 24 agents' banks is tokenized once; every
    # record shares the one vector.
    text = "Ada noticed the bell ring in the square."
    memory._hash_embed.cache_clear()
    tokenized = []
    tokens = memory._tokens
    monkeypatch.setattr(memory, "_tokens", lambda t: tokenized.append(t) or tokens(t))
    banks = [MemoryBank() for _ in range(24)]
    for bank in banks:
        bank.add(text, T0)
    assert tokenized == [text]
    assert memory._hash_embed.cache_info().hits == 23
    vectors = [bank.embeddings[0] for bank in banks]
    assert vectors == [reference_hash_embed(16, 0, text)] * 24
    assert all(vector is vectors[0] for vector in vectors)


# More queries than a bank caches, so some retrievals follow an eviction.
CACHE_QUERIES = [f"query {i}" for i in range(RELEVANCE_CACHE_QUERIES + 3)]
CACHE_TEXTS = ["snow at the mill", "the ferry is late", "beans for a cow"]
BANK_OPERATIONS = st.lists(
    st.tuples(st.just("add"), st.sampled_from(CACHE_TEXTS))
    | st.tuples(st.just("retrieve"), st.sampled_from(CACHE_QUERIES), st.integers(0, 40)),
    max_size=60,
)


@oracle_settings(150)
@given(operations=BANK_OPERATIONS)
def test_cached_retrieval_matches_full_scan_oracle(operations):
    bank = MemoryBank(embedder=HashEmbedder(dimension=4))
    for op, *args in operations:
        if op == "add":
            bank.add(args[0], T0)
        else:
            query, k = args
            got = bank.retrieve_associative(query, k)
            assert got == brute_force_rank(bank, query, k)


WORDS = ["ada", "bruno", "cyra", "mill", "ferry", "lantern", "sold", "found", "the", "at", "met"]
# More queries than a bank caches, so evicted queries come back.
PRUNED_QUERIES = WORDS[:5] + ["ada mill", "", "query 0", "the mill", "met the ferry"]
assert len(PRUNED_QUERIES) > RELEVANCE_CACHE_QUERIES
PRUNED_TEXTS = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)
PRUNED_OPERATIONS = st.lists(
    st.tuples(st.just("add"), PRUNED_TEXTS)
    | st.tuples(st.just("retrieve"), st.sampled_from(PRUNED_QUERIES), st.integers(0, 4) | st.integers(0, 50)),
    max_size=60,
)


def check_pruned_retrieval(block, dimension, preload, operations):
    """Every retrieval, with blocks of ``block`` records over a bank of
    ``preload`` records plus ``operations``, equals the full-scan oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "BLOCK_RECORDS", block)
        bank = MemoryBank(embedder=HashEmbedder(dimension=dimension))
        rng = random.Random(preload)
        for _ in range(preload):
            bank.add(" ".join(rng.choices(WORDS, k=rng.randrange(5))), T0)
        for op, *args in operations:
            if op == "add":
                bank.add(args[0], T0)
            else:
                query, k = args
                got = bank.retrieve_associative(query, k)
                assert got == brute_force_rank(bank, query, k)
        # Small k, so blocks are pruned, and k past the bank's size.
        for query in PRUNED_QUERIES:
            for k in (1, 3, 25, len(bank) + 1):
                got = bank.retrieve_associative(query, k)
                assert got == brute_force_rank(bank, query, k)


@oracle_settings(200)
@given(block=st.integers(1, 4), dimension=st.integers(1, 8), operations=PRUNED_OPERATIONS)
def test_block_pruned_retrieval_matches_full_scan_oracle(block, dimension, operations):
    # Blocks of 1-4 records, so a bank spans many blocks and most calls
    # prune some; few coordinates, so many records share a cosine and
    # recency alone separates them.  Blocks a call prunes get no cosines,
    # and blocks that gain records are bounded by the ceiling again until
    # scored; the results must not show it.
    check_pruned_retrieval(block, dimension, 0, operations)


@oracle_settings(30)
@given(
    dimension=st.integers(1, 8),
    preload=st.integers(257, 700),
    operations=PRUNED_OPERATIONS,
)
def test_blocks_of_the_default_size_match_full_scan_oracle(dimension, preload, operations):
    check_pruned_retrieval(memory.BLOCK_RECORDS, dimension, preload, operations)


def test_one_recency_table_serves_every_bank():
    # exp(-decay * age) depends on the age alone: every bank reads one
    # process table, grown geometrically by rebinding, never in place.
    banks = [MemoryBank() for _ in range(3)]
    for size, bank in zip((5, 40, 300), banks):
        for i in range(size):
            bank.add(f"memory {i}", T0)
    before = memory._recency
    for bank in banks:
        bank.retrieve_associative("memory", 3)
    table = memory._recency
    assert len(table) >= 300
    assert table[: len(before)] == before
    assert list(table) == [math.exp(-memory._DECAY * age) for age in range(len(table))]
    grown = memory._recency_table(len(table) + 1)
    assert grown is memory._recency and len(grown) >= 2 * len(table)
    assert memory._recency_table(len(table)) is grown


# Int count vectors: small counts, or counts large enough that nq * nr
# passes 2**53 and the int-to-float conversions round.
COUNTS = st.integers(-3, 3) | st.integers(-10_000, 10_000)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dimension=st.integers(1, 24), one_coordinate=st.booleans())
def test_bank_cosines_are_the_exact_int_formula(data, dimension, one_coordinate):
    # Covers queries with one nonzero coordinate and with several, and
    # records that are exact multiples of the query.
    vectors = st.lists(COUNTS, min_size=dimension, max_size=dimension).filter(any).map(tuple)
    if one_coordinate:
        j = data.draw(st.integers(0, dimension - 1))
        count = data.draw(COUNTS.filter(bool))
        query = tuple(count if i == j else 0 for i in range(dimension))
    else:
        query = data.draw(vectors)
    records = data.draw(st.lists(vectors, max_size=8))
    multiples = data.draw(st.lists(st.integers(-1_000, 1_000).filter(bool), max_size=4))
    records += [tuple(m * x for x in query) for m in multiples]
    embedder = AxisEmbedder({"query": query, **{f"record {i}": r for i, r in enumerate(records)}})
    bank = MemoryBank(embedder=embedder)
    for i in range(len(records)):
        bank.add(f"record {i}", T0)
    bank.retrieve_associative("query", len(records))
    got = [c for block in bank._queries["query"].cosines for c in block] if records else []
    assert [c.hex() for c in got] == [relevance(query, r).hex() for r in records]
    assert all(c <= memory.COSINE_CEILING for c in got)
    assert got[len(records) - len(multiples) :] == [1.0 if m > 0 else -1.0 for m in multiples]


def test_a_repeated_name_query_scores_under_a_tenth_of_a_large_bank(monkeypatch):
    # A recall-shaped bank: every memory names the agent, so relevance to
    # the name varies little and recency sets the order; once the cache
    # holds the query, a retrieval scores only the newest blocks.
    rng = random.Random(5)
    places = ["mill", "harbour", "chapel", "orchard", "forge", "market", "library", "ferry"]
    things = ["a lantern", "the blue kettle", "three letters", "a fishing net", "the old map"]
    verbs = ["mended", "lost", "found", "sold", "painted", "borrowed", "buried", "counted"]
    bank = MemoryBank()
    for day in range(10_000):
        bank.add(f"Cyra {rng.choice(verbs)} {rng.choice(things)} at the {rng.choice(places)} on day {day}.", T0)
    bank.retrieve_associative("Cyra", 25)
    bank.add("Cyra walked to the mill and asked around.", T0)
    scored = []
    score_block = memory._score_block

    def counting(cosines, recency, start, n):
        scored.append(len(cosines))
        return score_block(cosines, recency, start, n)

    monkeypatch.setattr(memory, "_score_block", counting)
    got = bank.retrieve_associative("Cyra", 25)
    assert 0 < sum(scored) < len(bank) / 10
    assert got == brute_force_rank(bank, "Cyra", 25)


RECALL_PLACES = ["mill", "harbour", "chapel", "orchard", "forge", "market", "library", "ferry"]
RECALL_VERBS = ["mended", "lost", "found", "sold", "painted", "borrowed", "buried", "counted"]
RECALL_THINGS = [
    "a lantern", "the blue kettle", "three letters", "a fishing net", "the old map",
    "a copper ring", "the ledger", "a bolt of linen", "the bell rope", "a crate of pears",
]


def test_a_name_query_computes_cosines_only_for_the_blocks_it_scores(monkeypatch):
    # A bank shaped like the recall benchmark's: 10k memories naming their
    # agent, 40 blocks.  The newest 16 records and the 256 before them hold
    # the top 25, and every older block's bound, the cosine ceiling plus its
    # recency, is below the 25th score, so no older cosine is computed.
    # How many blocks a first query fills depends on the bank: where fewer
    # records score high, the 25th score is lower and more ceiling bounds
    # reach it (with "Hiro" in place of "Ines" here, three blocks); for a
    # name whose coordinate a word of every record cancels, every block is
    # filled once, as a full scan would.
    rng = random.Random(1)
    bank = MemoryBank()
    for day in range(10_000):
        bank.add(
            f"Ines {rng.choice(RECALL_VERBS)} {rng.choice(RECALL_THINGS)} at the {rng.choice(RECALL_PLACES)} on day {day}",
            T0,
        )
    filled = []
    cosines = memory._cosines

    def counting(query, embeddings, squares):
        filled.append(len(embeddings))
        return cosines(query, embeddings, squares)

    monkeypatch.setattr(memory, "_cosines", counting)
    got = bank.retrieve_associative("Ines", 25)
    assert got == brute_force_rank(bank, "Ines", 25)
    assert len(filled) <= 2 and sum(filled) <= 2 * memory.BLOCK_RECORDS
    for turn in range(7):
        bank.add(f"Ines walked to the {RECALL_PLACES[turn]} and asked around.", T0)
    filled.clear()
    got = bank.retrieve_associative("Ines", 25)
    assert got == brute_force_rank(bank, "Ines", 25)
    assert filled == [7]


def test_a_filled_block_that_cannot_reach_the_top_k_is_not_scored(monkeypatch):
    # Few records name the agent, so the 25th score falls below 2, under the
    # ceiling bound of every block without cosines, and the first query by
    # the name fills all ten blocks.  Filled, a block is bounded by its
    # greatest cosine, and a block that holds no record near the top 25 is
    # not scored.
    rng = random.Random(1)
    bank = MemoryBank()
    for day in range(10 * memory.BLOCK_RECORDS):
        who = "Ines" if rng.random() < 0.02 else "Someone"
        bank.add(
            f"{who} {rng.choice(RECALL_VERBS)} {rng.choice(RECALL_THINGS)} at the {rng.choice(RECALL_PLACES)} on day {day}",
            T0,
        )
    query = bank.embedder.embed("Ines")
    scores = [oracle_score(query, embedding, len(bank) - 1 - i) for i, embedding in enumerate(bank.embeddings)]
    assert sorted(scores)[-25] < 2.0
    filled, scored = [], []
    cosines, score_block = memory._cosines, memory._score_block

    def counting_cosines(query, embeddings, squares):
        filled.append(len(embeddings))
        return cosines(query, embeddings, squares)

    def counting_scores(cosines, recency, start, n):
        scored.append(start)
        return score_block(cosines, recency, start, n)

    monkeypatch.setattr(memory, "_cosines", counting_cosines)
    monkeypatch.setattr(memory, "_score_block", counting_scores)
    assert bank.retrieve_associative("Ines", 25) == brute_force_rank(bank, "Ines", 25)
    assert len(filled) == 10
    assert 0 < len(scored) < len(filled)
    # Later calls bound the filled blocks by their greatest cosines.
    for day in range(3):
        bank.add(f"Someone walked to the mill on day {day}", T0)
        assert bank.retrieve_associative("Ines", 25) == brute_force_rank(bank, "Ines", 25)

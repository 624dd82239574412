from __future__ import annotations

import hashlib
import math
import random
import sys
import threading
from datetime import datetime, timedelta
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gabm import memory
from gabm.memory import (
    DEFAULT_HALF_LIFE,
    EMBED_CACHE_TEXTS,
    RELEVANCE_CACHE_QUERIES,
    HashEmbedder,
    MemoryBank,
    MemoryRecord,
    cosine,
    importance_from_model,
)
from gabm.model import ScriptRule, ScriptedModel

T0 = datetime(2024, 5, 1, 9, 0)


class AxisEmbedder:
    """Maps listed texts to fixed unit vectors; everything else to e0."""

    def __init__(self, mapping: dict[str, tuple[float, ...]], dimension: int = 4):
        self.mapping = mapping
        self.dimension = dimension

    def embed(self, text: str):
        if text in self.mapping:
            return self.mapping[text]
        return tuple([1.0] + [0.0] * (self.dimension - 1))


def test_hash_embedder_is_deterministic_and_unit_norm():
    embedder = HashEmbedder(dimension=16, seed=3)
    a = embedder.embed("the pub is snowed in")
    b = embedder.embed("the pub is snowed in")
    c = embedder.embed("something else")
    assert a == b
    assert a != c
    assert abs(math.sqrt(sum(x * x for x in a)) - 1.0) < 1e-9


def test_record_rejects_non_unit_embedding_and_bad_importance():
    with pytest.raises(ValueError):
        MemoryRecord("x", T0, (0.5, 0.5), 1.0, 0)
    unit = (1.0, 0.0)
    with pytest.raises(ValueError):
        MemoryRecord("x", T0, unit, 1.5, 0)
    MemoryRecord("x", T0, unit, 1.0, 0)


def test_insertion_indices_strictly_increase():
    bank = MemoryBank()
    ids = [bank.add(f"memory {i}", T0 + timedelta(minutes=i)) for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    assert [r.index for r in bank.snapshot()] == ids


def test_retrieval_scores_match_hand_computed_table():
    # Three records, weights (1,1,1), half-life 10 insertions.  Expected
    # scores frozen from independent arithmetic:
    #   rec0: cos=1.0, age 2, imp 0.5  -> 2.370550563296124
    #   rec1: cos=0.0, age 1, imp 1.0  -> 1.9330329915368074
    #   rec2: cos=0.6, age 0, imp 0.25 -> 1.85
    embedder = AxisEmbedder(
        {
            "query": (1.0, 0.0, 0.0, 0.0),
            "rec0": (1.0, 0.0, 0.0, 0.0),
            "rec1": (0.0, 1.0, 0.0, 0.0),
            "rec2": (0.6, 0.8, 0.0, 0.0),
        }
    )
    bank = MemoryBank(embedder=embedder, weights=(1.0, 1.0, 1.0), half_life=10.0)
    bank.add("rec0", T0, importance=0.5)
    bank.add("rec1", T0, importance=1.0)
    bank.add("rec2", T0, importance=0.25)
    query_embedding = embedder.embed("query")
    expected = {0: 2.370550563296124, 1: 1.9330329915368074, 2: 1.85}
    for record in bank.snapshot():
        got = bank.score(query_embedding, record, latest_index=2)
        assert got == pytest.approx(expected[record.index], abs=1e-12)
    retrieved = bank.retrieve_associative("query", k=3)
    assert [r.text for r in retrieved] == ["rec0", "rec1", "rec2"]


def test_equal_scores_prefer_recent_insertion():
    # Recency weight zero and identical text make scores exactly equal.
    bank = MemoryBank(weights=(1.0, 0.0, 1.0))
    bank.add("same words", T0, importance=1.0)
    bank.add("same words", T0, importance=1.0)
    bank.add("same words", T0, importance=1.0)
    retrieved = bank.retrieve_associative("same words", k=3)
    assert [r.index for r in retrieved] == [2, 1, 0]


def test_k_covers_edge_sizes():
    bank = MemoryBank()
    assert bank.retrieve_associative("anything", k=3) == []
    bank.add("only one", T0)
    assert [r.text for r in bank.retrieve_associative("q", k=10)] == ["only one"]
    assert bank.retrieve_associative("q", k=0) == []


def test_retrieve_recent_is_oldest_first_window():
    bank = MemoryBank()
    for i in range(5):
        bank.add(f"m{i}", T0 + timedelta(minutes=i))
    assert [r.text for r in bank.retrieve_recent(3)] == ["m2", "m3", "m4"]
    assert [r.text for r in bank.retrieve_recent(99)] == [f"m{i}" for i in range(5)]
    assert bank.retrieve_recent(0) == []


def brute_force_rank(bank: MemoryBank, query: str, k: int) -> list[int]:
    """Independent oracle: full scan, explicit selection, documented ties."""
    records = bank.snapshot()
    if not records or k <= 0:
        return []
    query_embedding = bank.embedder.embed(query)
    latest = records[-1].index
    w_rel, w_rec, w_imp = bank.weights
    lam = math.log(2.0) / bank.half_life
    scored = []
    for record in records:
        relevance = sum(a * b for a, b in zip(query_embedding, record.embedding))
        recency = math.exp(-lam * (latest - record.index))
        scored.append((w_rel * relevance + w_rec * recency + w_imp * record.importance, record))
    chosen: list[int] = []
    remaining = list(scored)
    while remaining and len(chosen) < k:
        best = remaining[0]
        for candidate in remaining[1:]:
            if candidate[0] > best[0] or (candidate[0] == best[0] and candidate[1].index > best[1].index):
                best = candidate
        chosen.append(best[1].index)
        remaining.remove(best)
    return chosen


def test_ranking_agrees_with_brute_force_oracle():
    rng = random.Random(77)
    for trial in range(10):
        weights = (rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
        half_life = rng.uniform(1, 200)
        bank = MemoryBank(
            embedder=HashEmbedder(dimension=8, seed=trial), weights=weights, half_life=half_life
        )
        for i in range(rng.randrange(1, 60)):
            bank.add(
                f"memory {rng.randrange(20)}",
                T0 + timedelta(minutes=i),
                importance=rng.random(),
            )
        k = rng.randrange(1, len(bank) + 5)
        query = f"query {rng.randrange(10)}"
        got = [r.index for r in bank.retrieve_associative(query, k)]
        assert got == brute_force_rank(bank, query, k)


def test_concurrent_adds_stay_consistent():
    bank = MemoryBank()

    def writer(offset: int):
        for i in range(50):
            bank.add(f"w{offset}-{i}", T0 + timedelta(minutes=i))

    threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        snap = bank.snapshot()
        assert [r.index for r in snap] == list(range(len(snap)))
    for t in threads:
        t.join()
    assert len(bank) == 200
    assert [r.index for r in bank.snapshot()] == list(range(200))


def test_importance_hook_scores_new_records():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="pivotal", response="0.9"),
            ScriptRule(contains="Rate", response="not a number"),
        ]
    )
    bank = MemoryBank(
        importance_scorer=importance_from_model(model, "Rate 0 to 1: {text}")
    )
    bank.add("a pivotal moment", T0)
    bank.add("an ordinary tuesday", T0)
    bank.add("explicit", T0, importance=0.2)
    importances = [r.importance for r in bank.snapshot()]
    assert importances == [0.9, 1.0, 0.2]


def test_default_half_life_and_weights_applied():
    bank = MemoryBank()
    assert bank.weights == (1.0, 1.0, 1.0)
    assert bank.half_life == DEFAULT_HALF_LIFE
    assert bank.decay == pytest.approx(math.log(2) / 100.0)


def test_cosine_of_unit_vectors():
    assert cosine((1.0, 0.0), (0.0, 1.0)) == 0.0
    assert cosine((1.0, 0.0), (1.0, 0.0)) == 1.0


def reference_hash_embed(dimension: int, seed: int, text: str) -> tuple[float, ...]:
    """HashEmbedder.embed as first written: one full digest per coordinate."""
    raw = []
    for i in range(dimension):
        digest = hashlib.sha256(f"{seed}|{i}|{text}".encode()).digest()
        raw.append(int.from_bytes(digest[:8], "big") / 2**63 - 1.0)
    norm = math.sqrt(sum(x * x for x in raw))
    return tuple(x / norm for x in raw)


def test_hash_embedder_golden_vectors():
    # Frozen from the one-digest-per-coordinate embedder.  The norm is a
    # float sum, which Python 3.12 compensates, so these inputs are ones
    # whose vectors come out the same on 3.10, 3.11 and 3.12.
    assert HashEmbedder(dimension=4, seed=3).embed("the pub is snowed in") == (
        0.7406885539245878, 0.4624844054387772, -0.13706740678898224, -0.4676549655538659,
    )
    assert HashEmbedder().embed("Alice met Bob at the mill.") == (
        -0.39823591212533027, 0.1515891725648429, -0.4333142726736975, -0.03787708846194285,
        0.14719131760303386, -0.42566847491068693, -0.09694658564644176, -0.37791547804508013,
        0.039148597630437106, -0.25520003424394516, -0.04293156920320769, 0.12521687986648306,
        -0.17785029532552038, -0.08999937065471057, 0.36727257558741216, 0.12390903494158062,
    )
    assert HashEmbedder().embed("\u00dcn\u00efc\u00f6d\u00e9 \u2603 text") == (
        -0.3862282228874588, -0.07442476880078083, 0.3811245714646009, -0.31569299965066044,
        -0.17412018333367185, -0.15081425641185575, 0.12693158947677805, 0.31456986069545717,
        0.3808800340397892, -0.1448957606439114, 0.32067370305099874, -0.1787354905248673,
        -0.038384760955400624, 0.25078573917299385, -0.06906585879219135, 0.24952504865079225,
    )


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
    results: list[list[tuple[float, ...]]] = []

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


def test_fanned_out_text_is_digested_once(monkeypatch):
    # One observation reaching 24 agents' banks runs the digest loop once;
    # every record shares the one vector.
    text = "Ada noticed the bell ring in the square."
    memory._hash_embed.cache_clear()
    digest_loops = []
    prefixes = memory._coordinate_prefixes
    monkeypatch.setattr(
        memory, "_coordinate_prefixes", lambda *key: digest_loops.append(key) or prefixes(*key)
    )
    banks = [MemoryBank() for _ in range(24)]
    for bank in banks:
        bank.add(text, T0)
    assert digest_loops == [(16, 0)]
    assert memory._hash_embed.cache_info().hits == 23
    vectors = [bank.snapshot()[0].embedding for bank in banks]
    assert vectors == [reference_hash_embed(16, 0, text)] * 24
    assert all(vector is vectors[0] for vector in vectors)


def oracle_score(bank: MemoryBank, query_embedding, record: MemoryRecord, latest: int) -> float:
    """The scoring formula in plain arithmetic, one record at a time."""
    w_rel, w_rec, w_imp = bank.weights
    relevance = sum(a * b for a, b in zip(query_embedding, record.embedding))
    recency = math.exp(-(math.log(2.0) / bank.half_life) * (latest - record.index))
    return w_rel * relevance + w_rec * recency + w_imp * record.importance


# More queries than a bank caches, so some retrievals follow an eviction;
# few texts, so duplicate records tie exactly when the recency weight is 0.
CACHE_QUERIES = [f"query {i}" for i in range(RELEVANCE_CACHE_QUERIES + 3)]
CACHE_TEXTS = ["snow at the mill", "the ferry is late", "beans for a cow"]
WEIGHTS = st.tuples(
    st.floats(0.0, 2.0), st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0), st.floats(0.0, 2.0)
)
BANK_OPERATIONS = st.lists(
    st.tuples(st.just("add"), st.sampled_from(CACHE_TEXTS), st.sampled_from([0.0, 0.5, 1.0]))
    | st.tuples(st.just("retrieve"), st.sampled_from(CACHE_QUERIES), st.integers(0, 40))
    | st.tuples(st.just("weights"), WEIGHTS, st.none()),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(weights=WEIGHTS, half_life=st.floats(1.0, 50.0), operations=BANK_OPERATIONS)
def test_cached_retrieval_matches_full_scan_oracle(weights, half_life, operations):
    bank = MemoryBank(embedder=HashEmbedder(dimension=4), weights=weights, half_life=half_life)
    for op, arg, value in operations:
        if op == "add":
            bank.add(arg, T0, importance=value)
        elif op == "weights":
            bank.weights = arg
        else:
            got = [r.index for r in bank.retrieve_associative(arg, value)]
            assert got == brute_force_rank(bank, arg, value)
            query_embedding = bank.embedder.embed(arg)
            for record in bank.snapshot():
                expected = oracle_score(bank, query_embedding, record, len(bank) - 1)
                assert bank.score(query_embedding, record, len(bank) - 1) == expected


def test_concurrent_adds_and_retrievals_stay_exact():
    bank = MemoryBank(embedder=HashEmbedder(dimension=4), weights=(1.0, 0.5, 1.0), half_life=20.0)
    queries = ["query 0", "query 1", "query 2"]
    seen: list[tuple[int, int, str, int, list[int]]] = []

    def writer(offset: int):
        for i in range(50):
            bank.add(f"w{offset}-{i % 7}", T0, importance=(i % 3) / 2)

    def reader(offset: int):
        for i in range(50):
            query, k = queries[(i + offset) % 3], 1 + i % 10
            before = len(bank)
            got = [r.index for r in bank.retrieve_associative(query, k)]
            seen.append((before, len(bank), query, k, got))

    threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
    threads += [threading.Thread(target=reader, args=(n,)) for n in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(bank) == 200 and len(seen) == 100

    records = bank.snapshot()

    def prefix(n: int) -> SimpleNamespace:
        return SimpleNamespace(
            snapshot=lambda: records[:n],
            embedder=bank.embedder,
            weights=bank.weights,
            half_life=bank.half_life,
        )

    # Each retrieval ranked the bank as it stood at some moment of the call.
    for before, after, query, k, got in seen:
        assert any(got == brute_force_rank(prefix(n), query, k) for n in range(before, after + 1))
    # The cached relevance vectors, extended between concurrent adds, still
    # line up with the records.
    for query in queries:
        for k in (1, 10, 200):
            got = [r.index for r in bank.retrieve_associative(query, k)]
            assert got == brute_force_rank(bank, query, k)

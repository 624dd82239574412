"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line so a run of this file reads as a
checklist.  Everything here drives the public API with scripted or echo
backends; the only network-touching check is gated on an environment
variable and skipped otherwise.
"""
from __future__ import annotations

import math
import os
import random
import time
from datetime import datetime
from decimal import Decimal
from pathlib import Path

import pytest

import gabm
from gabm.agent import GenerativeAgent, ObservationBuffer, ConstantComponent
from gabm.config import build, load_config
from gabm.game_master import GameMaster, GMComponent, spawn_nested_game
from gabm.grounding import InventoryComponent, Trade
from gabm.kernel import ActionSpec, GameClock, Observation, parse_time
from gabm.memory import HashEmbedder, MemoryBank
from gabm.model import ScriptedModel, ScriptRule
from gabm.phone import CalendarApp, PhoneUniverse, run_phone_scene
from gabm.trace import replay, run_built_scenario

from conftest import memory_texts

SCENARIOS = Path(gabm.__file__).parent / "scenarios"
SCRIPTED_FIXTURES = ["calendar.json", "magic_beans.json", "three_questions.json"]


def fresh_agent(name: str, components=None) -> GenerativeAgent:
    return GenerativeAgent(
        name=name,
        model=ScriptedModel(),
        memory=MemoryBank(embedder=HashEmbedder()),
        components=components or [],
    )


# --- 1. deterministic replay ----------------------------------------------------


def test_criterion_1_deterministic_replay(tmp_path):
    started = time.monotonic()
    for name in SCRIPTED_FIXTURES:
        paths = []
        for run in range(2):
            built = build(load_config(SCENARIOS / name))
            out = tmp_path / f"{name}.{run}.jsonl"
            with open(out, "w", encoding="utf-8") as handle:
                run_built_scenario(built, out=handle)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes(), f"{name}: runs differ"
        report = replay(paths[0])
        assert report.ok, f"{name}: {report.detail}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS deterministic replay: {len(SCRIPTED_FIXTURES)} fixtures byte-identical in {elapsed:.2f}s")


# --- 2. game-master call order ---------------------------------------------------


class ProbeComponent(GMComponent):
    """Logs every lifecycle call the game master makes."""

    def __init__(self):
        super().__init__("probe")
        self.log: list[str] = []

    def partial_state(self, player: str) -> str:
        self.log.append("partial_state")
        return ""

    def state(self) -> str:
        self.log.append("state")
        return ""

    def answer_before_event(self, gm, cause, answer) -> None:
        self.log.append("before")

    def answer_after_event(self, gm, event, answer) -> None:
        self.log.append("after")


TURN_PATTERN = ["partial_state", "state", "before", "after"]


def test_criterion_2_gm_call_order_over_randomized_turns():
    rng = random.Random(7)
    total_turns = 0
    episodes = 0
    while total_turns < 100:
        n_players = rng.randint(2, 4)
        rounds = rng.randint(2, 5)
        probe = ProbeComponent()
        players = [fresh_agent(f"P{i}") for i in range(n_players)]
        gm = GameMaster(
            model=ScriptedModel(),
            players=players,
            clock=GameClock(current_time=parse_time("2024-05-01T09:00")),
            components=[probe],
            rng=random.Random(rng.randint(0, 10**6)),
        )
        result = gm.run_episode(rounds)
        turns = n_players * rounds
        assert len(result.trace) == turns
        # The one extra state call is the end-of-episode grounded snapshot.
        assert probe.log == TURN_PATTERN * turns + ["state"]
        total_turns += turns
        episodes += 1
    print(f"\nPASS gm call order: {total_turns} turns across {episodes} episodes, zero violations")


# --- 3. associative memory oracle ------------------------------------------------


def oracle_cosine(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    # Int counts: the exact int dot product over one sqrt and one division.
    dot = sum(x * y for x, y in zip(a, b))
    return dot / math.sqrt(sum(x * x for x in a) * sum(y * y for y in b))


def test_criterion_3_memory_matches_full_scan_oracle():
    rng = random.Random(99)
    words = ["river", "market", "snow", "letter", "beans", "engine", "garden", "voyage"]
    start = parse_time("2024-01-01T00:00")
    checked = 0
    # The engine's one rule: relevance + recency at a 100-insertion
    # half-life + importance 1.
    decay = math.log(2.0) / 100.0
    for _ in range(50):
        bank = MemoryBank(embedder=HashEmbedder())
        size = rng.randint(1, 200)
        for _ in range(size):
            text = " ".join(rng.choices(words, k=rng.randint(1, 3)))
            bank.add(text, start)
        query = " ".join(rng.choices(words, k=2))
        k = rng.randint(1, 20)

        latest = len(bank) - 1
        query_embedding = bank.embedder.embed(query)

        def oracle_score(index):
            relevance = oracle_cosine(query_embedding, bank.embeddings[index])
            recency = math.exp(-decay * (latest - index))
            return relevance + recency + 1.0

        remaining = list(range(len(bank)))
        expected = []
        while remaining:
            best = max(remaining, key=lambda i: (oracle_score(i), i))
            expected.append(best)
            remaining.remove(best)

        assert bank.retrieve_associative(query, k) == expected[:k]
        checked += 1
    print(f"\nPASS memory oracle: {checked} random banks, ordering exact")


# --- 4. grounding invariants ------------------------------------------------------


def test_criterion_4_transfers_conserve_and_reject_safely():
    names = ["Ada", "Beth", "Cole", "Dane"]
    endowments = {
        "Ada": {"beans": 20, "coin": 50},
        "Beth": {"beans": 5, "coin": 5},
        "Cole": {"coin": 100},
        "Dane": {"beans": 1},
    }
    inventory = InventoryComponent(endowments=endowments)
    players = [fresh_agent(name) for name in names]
    gm = GameMaster(
        model=ScriptedModel(),
        players=players,
        clock=GameClock(current_time=parse_time("2024-05-01T09:00")),
        components=[inventory],
        rng=random.Random(0),
    )

    def totals():
        return {
            item: sum(inventory.inventory.get(name, item) for name in names)
            for item in inventory.inventory.items
        }

    initial = totals()
    rng = random.Random(4242)
    rejections = {name: 0 for name in names}
    rejected = 0
    settled_paid = settled_gifts = 0
    for _ in range(1000):
        buyer, seller = rng.sample(names, 2)
        item = rng.choice(list(initial))
        qty = Decimal(rng.randint(1, 4000)) / 100
        # Half the trades are gifts, so the coin leg is skipped as often as run.
        price = Decimal(rng.choice((0, rng.randint(1, 4000)))) / 100
        actor = rng.choice((buyer, seller))
        before = {name: dict(inventory.inventory.balances[name]) for name in names}
        result = inventory.settle(gm, actor, Trade(buyer=buyer, seller=seller, item=item, qty=qty, price=price))
        if not result.ok:
            rejected += 1
            rejections[actor] += 1
            assert inventory.inventory.balances == before
        elif price > 0:
            settled_paid += 1
        else:
            settled_gifts += 1
        assert totals() == initial
        for name in names:
            for held in initial:
                assert inventory.inventory.get(name, held) >= 0
    assert rejected > 0  # the draw range guarantees plenty of overdrafts
    assert settled_paid > 0 and settled_gifts > 0
    for player in players:
        invalid = [t for t in memory_texts(player.memory) if t.startswith("Your action was invalid:")]
        assert len(invalid) == rejections[player.name]
    print(f"\nPASS grounding invariants: 1000 trades, {rejected} rejected, conservation exact")


# --- 5. nested scenes -------------------------------------------------------------


def test_criterion_5_nested_scenes_round_trip():
    model = ScriptedModel(rules=[ScriptRule(contains="finished using the phone", response="yes")])
    alice = fresh_agent("Alice")
    bob = fresh_agent("Bob")
    alice.model = model
    universe = PhoneUniverse(phones={"Alice": [CalendarApp()]}, minutes=30, max_actions=3, child_step_minutes=1)
    gm = GameMaster(
        model=model,
        players=[alice, bob],
        clock=GameClock(current_time=parse_time("2024-05-01T09:00")),
        components=[],
        rng=random.Random(1),
        phones=universe,
    )

    def errand() -> None:
        """Depth-2 scene: runs a real phone scene inside itself."""
        run_phone_scene(gm, "Alice", trigger="checking the phone")
        gm.audit_note("Alice finished her errand.")

    step_before = gm.clock.step_index
    record = gm.begin_record("turn", 0, "Alice")
    spawn_nested_game(gm, errand, scene_minutes=25, label="errand")
    gm.finish_record(record)
    assert record.notes == [
        "scene start: errand",
        "scene start: phone: Alice",
        "scene end: phone: Alice",
        "Alice finished her errand.",
        "scene end: errand",
    ]
    assert [c.caller for c in record.model_calls] == ["phone:scene:done"]
    assert "Trigger: checking the phone" in record.model_calls[0].prompt
    # 30 minutes for the inner phone scene plus 25 for the errand itself.
    assert gm.clock.current_time == parse_time("2024-05-01T09:55")
    assert gm.clock.step_index == step_before
    print("\nPASS nested scenes: LIFO markers, inner scene's calls recorded, clock charged exactly")


# --- 6. calendar end to end --------------------------------------------------------


def test_criterion_6_calendar_end_to_end():
    started = time.monotonic()
    built = build(load_config(SCENARIOS / "calendar.json"))
    outcome = run_built_scenario(built)
    elapsed = time.monotonic() - started
    meetings = built.gm.phones.phones["Alice"][0].meetings
    assert len(meetings) == 1
    assert set(meetings[0].participants) == {"Alice", "Bob"}
    notifications = [
        obs.text
        for record in outcome.result.trace
        for obs in record.observations
        if obs.recipient == "Bob" and obs.text.startswith("New meeting")
    ]
    assert len(notifications) == 1
    assert elapsed < 5.0
    print(f"\nPASS calendar end to end: one meeting, one notification, {elapsed:.2f}s")


# --- 7. agent sampling contract -----------------------------------------------------


def test_criterion_7_sampling_contract(calls):
    spec = ActionSpec("What would {name} do next? It is {time}.")
    moment = parse_time("2024-05-01T09:00")

    # Component order is prompt order.
    forward = fresh_agent(
        "Ada",
        [ConstantComponent("goal", "win"), ConstantComponent("mood", "calm"),
         ConstantComponent("plan", "sail")],
    )
    backward = fresh_agent(
        "Ada",
        [ConstantComponent("plan", "sail"), ConstantComponent("goal", "win"),
         ConstantComponent("mood", "calm")],
    )
    forward.act(spec, moment)
    backward.act(spec, moment)
    forward_prompt, backward_prompt = [call.prompt for call in calls]
    assert "goal: win\nmood: calm\nplan: sail" in forward_prompt
    assert "plan: sail\ngoal: win\nmood: calm" in backward_prompt
    assert sorted(forward_prompt.splitlines()) == sorted(backward_prompt.splitlines())

    # No components: the prompt is exactly preamble plus call to action.
    bare = fresh_agent("Ada")
    bare.act(spec, moment)
    assert calls[-1].prompt == (
        "Instructions: this is a social simulation. Answer as Ada would.\n"
        "What would Ada do next? It is 2024-05-01T09:00."
    )

    # The observation component carries the last 20 observations verbatim.
    watcher = fresh_agent("Ada", [ObservationBuffer()])
    texts = [f"observation number {i}" for i in range(25)]
    for text in texts:
        watcher.observe(Observation(recipient="Ada", text=text, timestamp=moment))
    watcher.update_components()()
    state = watcher.component("recent observations").state()
    assert state == "\n".join(texts[5:])
    assert len(state.splitlines()) == 20
    print("\nPASS sampling contract: order permutation, identity case, 20-observation window")


# --- 8. initiative statistics --------------------------------------------------------


def test_criterion_8_initiative_positions_are_uniformish():
    names = ["Ada", "Beth", "Cole", "Dane"]
    players = [fresh_agent(name) for name in names]
    gm = GameMaster(
        model=ScriptedModel(),
        players=players,
        clock=GameClock(current_time=parse_time("2024-01-01T00:00"), step_minutes=1),
        components=[],
        rng=random.Random(31337),
    )
    result = gm.run_episode(1000)
    rounds: dict[int, list[str]] = {}
    for record in result.trace:
        rounds.setdefault(record.step, []).append(record.actor)
    assert len(rounds) == 1000
    counts = {name: [0, 0, 0, 0] for name in names}
    for order in rounds.values():
        assert sorted(order) == sorted(names)
        for position, actor in enumerate(order):
            counts[actor][position] += 1
    for name in names:
        for position in range(4):
            assert 200 <= counts[name][position] <= 300, (name, position, counts[name])
    print(f"\nPASS initiative statistics: 1000 rounds, all 16 position counts in [200, 300]")


# --- 9. live backend smoke -----------------------------------------------------------


@pytest.mark.skipif(
    not os.environ.get("GABM_MODEL_ENDPOINT"),
    reason="GABM_MODEL_ENDPOINT not set; live smoke runs only against a real endpoint",
)
def test_criterion_9_live_backend_smoke():
    built = build(load_config(SCENARIOS / "riverbend_election.json"), max_steps_override=3)
    outcome = run_built_scenario(built)
    assert outcome.result.reason != "error", outcome.result.error
    steps = {record.step for record in outcome.result.trace if record.kind == "turn"}
    assert len(steps) >= 3
    print(f"\nPASS live smoke: {len(outcome.result.trace)} records over {len(steps)} steps")

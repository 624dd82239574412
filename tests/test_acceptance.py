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
from gabm.game_master import ConversationScene, GameMaster, GMComponent, spawn_nested_game
from gabm.grounding import InventoryComponent, Trade
from gabm.kernel import ActionSpec, GameClock, Observation, parse_time
from gabm.memory import HashEmbedder, MemoryBank
from gabm.model import ScriptedModel, ScriptRule
from gabm.phone import CalendarApp, PhoneUniverse, run_phone_scene
from gabm.trace import replay, run_built_scenario

SCENARIOS = Path(gabm.__file__).parent / "scenarios"
SCRIPTED_FIXTURES = ["calendar.json", "magic_beans.json", "three_questions.json"]


def fresh_agent(name: str, components=None, clock_start: str | None = "2024-05-01T09:00") -> GenerativeAgent:
    clock = GameClock(current_time=parse_time(clock_start)) if clock_start else None
    return GenerativeAgent(
        name=name,
        model=ScriptedModel(),
        memory=MemoryBank(embedder=HashEmbedder()),
        components=components or [],
        clock=clock,
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

    def update(self) -> None:
        self.log.append("update")

    def partial_state(self, player: str) -> str:
        self.log.append("partial_state")
        return ""

    def update_before_event(self, cause) -> None:
        self.log.append("before")

    def state(self) -> str:
        self.log.append("state")
        return ""

    def update_after_event(self, event) -> None:
        self.log.append("after")

    def terminate_episode(self) -> bool:
        self.log.append("terminate")
        return False


TURN_PATTERN = ["update", "partial_state", "before", "state", "after", "terminate"]


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


def oracle_cosine(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def test_criterion_3_memory_matches_full_scan_oracle():
    rng = random.Random(99)
    words = ["river", "market", "snow", "letter", "beans", "engine", "garden", "voyage"]
    start = parse_time("2024-01-01T00:00")
    checked = 0
    for bank_index in range(50):
        weights = (
            round(rng.uniform(0.0, 2.0), 3),
            0.0 if bank_index % 3 == 0 else round(rng.uniform(0.0, 2.0), 3),
            round(rng.uniform(0.0, 2.0), 3),
        )
        half_life = rng.uniform(1.0, 50.0)
        bank = MemoryBank(embedder=HashEmbedder(), weights=weights, half_life=half_life)
        size = rng.randint(1, 200)
        for _ in range(size):
            text = " ".join(rng.choices(words, k=rng.randint(1, 3)))
            bank.add(text, start, importance=rng.choice([0.0, 0.5, 1.0]))
        query = " ".join(rng.choices(words, k=2))
        k = rng.randint(1, 20)

        records = bank.snapshot()
        latest = records[-1].index
        query_embedding = bank.embedder.embed(query)
        decay = math.log(2.0) / half_life

        def oracle_score(record):
            relevance = oracle_cosine(query_embedding, record.embedding)
            recency = math.exp(-decay * (latest - record.index))
            return weights[0] * relevance + weights[1] * recency + weights[2] * record.importance

        remaining = list(records)
        expected = []
        while remaining:
            best = max(remaining, key=lambda r: (oracle_score(r), r.index))
            expected.append(best)
            remaining.remove(best)

        got = bank.retrieve_associative(query, k)
        assert [r.index for r in got] == [r.index for r in expected[:k]]
        for record in got:
            engine_score = bank.score(query_embedding, record, latest)
            assert abs(engine_score - oracle_score(record)) < 1e-9
        checked += 1
    print(f"\nPASS memory oracle: {checked} random banks, ordering exact, scores within 1e-9")


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
    assert gm is inventory.gm

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
        result = inventory.settle(actor, Trade(buyer=buyer, seller=seller, item=item, qty=qty, price=price))
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
        invalid = [t for t in player.memory.texts() if t.startswith("Your action was invalid:")]
        assert len(invalid) == rejections[player.name]
    print(f"\nPASS grounding invariants: 1000 trades, {rejected} rejected, conservation exact")


# --- 5. nested scenes -------------------------------------------------------------


class ErrandScene:
    """Depth-2 wrapper: runs a real phone scene inside itself."""

    def __init__(self, gm: GameMaster, universe: PhoneUniverse):
        self.gm = gm
        self.universe = universe

    def run(self) -> list[str]:
        run_phone_scene(self.gm, self.universe, "Alice", trigger="checking the phone")
        return ["Alice finished her errand."]


def test_criterion_5_nested_scenes_round_trip():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="finished using the phone", response="yes"),
            ScriptRule(contains="say next", response="see you at ten"),
            ScriptRule(contains="conversation over", response="yes"),
        ]
    )
    alice = fresh_agent("Alice")
    bob = fresh_agent("Bob")
    alice.model = model
    bob.model = model
    gm = GameMaster(
        model=model,
        players=[alice, bob],
        clock=GameClock(current_time=parse_time("2024-05-01T09:00")),
        components=[],
        rng=random.Random(1),
    )
    universe = PhoneUniverse(scene_minutes=30, max_actions=3, child_step_minutes=1)
    universe.register_app(CalendarApp())
    universe.give_phone("Alice", ["calendar"])
    universe.attach(gm)

    step_before = gm.clock.step_index
    spawn_nested_game(
        gm,
        lambda agents, clock: ErrandScene(gm, universe),
        ["Alice"],
        GameClock(current_time=gm.clock.current_time),
        scene_minutes=25,
        label="errand",
    )
    assert gm.memory.texts() == [
        "[scene start: errand]",
        "[scene start: phone: Alice]",
        "Alice started using the phone.",
        "Alice finished using the phone.",
        "[scene end: phone: Alice]",
        "Alice finished her errand.",
        "[scene end: errand]",
    ]
    # 30 minutes for the inner phone scene plus 25 for the errand itself.
    assert gm.clock.current_time == parse_time("2024-05-01T09:55")
    assert gm.clock.step_index == step_before

    chat_clock = GameClock(current_time=gm.clock.current_time, step_minutes=2)
    spawn_nested_game(
        gm,
        lambda agents, clock: ConversationScene(agents, model, clock, max_turns=4),
        ["Alice", "Bob"],
        chat_clock,
        scene_minutes=10,
        label="hallway chat",
    )
    texts = gm.memory.texts()
    assert texts[-3:] == [
        'Alice said: "see you at ten"',
        "The conversation ended.",
        "[scene end: hallway chat]",
    ]
    assert gm.clock.current_time == parse_time("2024-05-01T10:05")
    assert 'Alice said: "see you at ten"' in bob.memory.texts()
    print("\nPASS nested scenes: LIFO markers, child memories merged, clock charged exactly")


# --- 6. calendar end to end --------------------------------------------------------


def test_criterion_6_calendar_end_to_end():
    started = time.monotonic()
    built = build(load_config(SCENARIOS / "calendar.json"))
    outcome = run_built_scenario(built)
    elapsed = time.monotonic() - started
    meetings = built.universe.apps["calendar"].store.meetings
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


def test_criterion_7_sampling_contract():
    spec = ActionSpec("What would {name} do next? It is {time}.")

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
    forward.act(spec)
    backward.act(spec)
    assert "goal: win\nmood: calm\nplan: sail" in forward.last_prompt
    assert "plan: sail\ngoal: win\nmood: calm" in backward.last_prompt
    assert sorted(forward.last_prompt.splitlines()) == sorted(backward.last_prompt.splitlines())

    # No components: the prompt is exactly preamble plus call to action.
    bare = fresh_agent("Ada")
    bare.act(spec)
    assert bare.last_prompt == (
        "Instructions: this is a social simulation. Answer as Ada would.\n"
        "What would Ada do next? It is 2024-05-01T09:00."
    )

    # The observation component carries the last 20 observations verbatim.
    watcher = fresh_agent("Ada", [ObservationBuffer()])
    moment = parse_time("2024-05-01T09:00")
    texts = [f"observation number {i}" for i in range(25)]
    for text in texts:
        watcher.observe(Observation(recipient="Ada", text=text, timestamp=moment))
    watcher.update_components()
    state = watcher.component("recent observations").state()
    assert state == "\n".join(texts[5:])
    assert len(state.splitlines()) == 20
    print("\nPASS sampling contract: order permutation, identity case, 20-observation window")


# --- 8. initiative statistics --------------------------------------------------------


def test_criterion_8_initiative_positions_are_uniformish():
    names = ["Ada", "Beth", "Cole", "Dane"]
    players = [fresh_agent(name, clock_start=None) for name in names]
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

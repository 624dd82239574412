"""Seeded workload generator for the gabm benchmark.

Each workload turns a seed into one scenario config dict plus the
``ScriptRule`` list a ``ScriptedModel`` answers from.  The engine sees only
those two things; nothing here reaches into its internals.  The seed picks
names, memory texts, endowments, and which actors trade, haggle, overspend
or use the phone.  The shape of every workload (agent count, components,
steps, bank size, model latency) is fixed, so two seeds cost about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gabm.model import ScriptRule

NAMES = (
    "Abel", "Bruno", "Cyra", "Dmitri", "Edda", "Farid", "Greta", "Hiro",
    "Ines", "Jomo", "Kasia", "Lior", "Mabel", "Nuno", "Oskar", "Priya",
    "Quincy", "Rosa", "Sven", "Tamsin", "Ulla", "Vikram", "Wren", "Xiomara",
    "Yusuf", "Zelda", "Amara", "Benedikt", "Clio", "Dorian", "Esme", "Fionn",
)
PLACES = ("mill", "harbour", "chapel", "orchard", "forge", "market", "library", "ferry")
VERBS = ("mended", "lost", "found", "sold", "painted", "borrowed", "buried", "counted")
THINGS = (
    "a lantern", "the blue kettle", "three letters", "a fishing net", "the old map",
    "a copper ring", "the ledger", "a bolt of linen", "the bell rope", "a crate of pears",
)
TOPICS = ("the flood", "the harvest fair", "the new mayor", "the broken bridge", "the eclipse")

CLOCK = {"start": "2024-05-01T08:00", "step_minutes": 15, "mode": "round"}


@dataclass(frozen=True)
class Workload:
    """One generated episode: what the engine runs and what is checked after."""

    name: str
    config: dict
    rules: tuple[ScriptRule, ...]
    latency_ms: float
    endowments: dict[str, dict[str, int]]

    @property
    def agents(self) -> int:
        return len(self.config["agents"])

    @property
    def steps(self) -> int:
        return self.config["max_steps"]

    def fresh_rules(self) -> list[ScriptRule]:
        """Rules with unspent use counters, one list per model instance."""
        return [ScriptRule.from_dict(rule.to_dict()) for rule in self.rules]


def _names(rng: random.Random, count: int) -> list[str]:
    names = rng.sample(NAMES, count)
    # Script rules match on substrings, so no name may be a prefix of another.
    assert not any(a != b and b.startswith(a) for a in names for b in names)
    return names


def _config(seed: int, steps: int, agents: list[dict], gm_components: list[dict], **extra) -> dict:
    config = {
        "seed": seed,
        "max_steps": steps,
        "clock": dict(CLOCK),
        "model": {"kind": "scripted"},
        "agents": agents,
        "gm": {"components": gm_components},
    }
    config.update(extra)
    return config


def _three_question_rules(names: list[str], rng: random.Random) -> list[ScriptRule]:
    rules = [
        ScriptRule(contains="Question: What kind of situation", response=f"A quiet day of talk about {rng.choice(TOPICS)}."),
    ]
    for name in names:
        rules.append(
            ScriptRule(
                contains=f"Question: What kind of person is {name}?",
                response=f"{name} is {rng.choice(('careful', 'restless', 'generous', 'stubborn'))}.",
            )
        )
    rules.append(
        ScriptRule(contains="Question: What does a person such as", response="They keep to their plans.")
    )
    return rules


def _everyone_observes(names: list[str], actor: str, what: str) -> ScriptRule:
    lines = "\n".join(f"{name}: {what}" for name in names)
    return ScriptRule(contains_all=("Who observes this event", f"Event: {actor} "), response=lines)


def recall(seed: int) -> Workload:
    """Four three-questions agents over 10k-record banks; retrieval bound."""
    rng = random.Random(seed)
    names = _names(rng, 4)
    agents = []
    for name in names:
        memories = [
            f"{name} {rng.choice(VERBS)} {rng.choice(THINGS)} at the {rng.choice(PLACES)} on day {day}."
            for day in range(10_000)
        ]
        agents.append({"name": name, "components": [{"type": "three_questions"}], "initial_memories": memories})
    rules = _three_question_rules(names, rng)
    for name in names:
        place = rng.choice(PLACES)
        rules.append(ScriptRule(contains=f"What would {name} do next", response=f"{name} walks to the {place} and asks about {rng.choice(THINGS)}."))
        rules.append(ScriptRule(contains_all=("What event results", f"Attempted action by {name}:"), response=f"{name} walked to the {place} and asked around."))
        rules.append(_everyone_observes(names, name, f"saw {name} heading for the {place}."))
    rules.append(ScriptRule(contains="What is the state of the world", response="The village is calm."))
    locations = {"type": "locations", "locations": {name: rng.choice(PLACES) for name in names}}
    config = _config(seed, 10, agents, [locations])
    return Workload("recall", config, tuple(rules), latency_ms=0.0, endowments={})


MARKET_LATENCY_MS = 5.0


def market(seed: int) -> Workload:
    """Six three-questions traders behind a slow model; grounding every turn.

    Four traders sit in a ring and each buys the same lot from the next, so
    coin flows one way and beans the other, and a holding of one lot is
    always enough: none of their trades is ever vetoed.  The fifth always
    overspends (vetoed) and the sixth haggles in a line the trade grammar
    cannot parse (extraction warnings).  So every seed has the same mix of
    turns and the same number of model calls per turn.
    """
    rng = random.Random(seed)
    names = _names(rng, 6)
    *ring, overspender, haggler = names
    qty, price = rng.randint(1, 2), rng.randint(1, 3)
    endowments = {
        name: {"coin": rng.randint(price, 12), "beans": rng.randint(qty, 6)} for name in names
    }
    agents = []
    for name in names:
        memories = [
            f"{name} {rng.choice(VERBS)} {rng.choice(THINGS)} at the market on day {day}."
            for day in range(20)
        ]
        agents.append({"name": name, "components": [{"type": "three_questions"}], "initial_memories": memories})
    rules = _three_question_rules(names, rng)
    rules += [
        ScriptRule(contains=f"What would {haggler} do next", response=f"{haggler} haggles loudly over the price of beans."),
        ScriptRule(contains_all=("extract any completed trade", f"{haggler} haggle"), response=f"TRADE {haggler} beans maybe"),
        ScriptRule(contains_all=("What event results", f"Attempted action by {haggler}:"), response=f"{haggler} haggled loudly but bought nothing."),
    ]
    sellers = {name: ring[(i + 1) % len(ring)] for i, name in enumerate(ring)}
    sellers[overspender] = rng.choice(ring)
    for name, seller in sellers.items():
        lot, cost = (50, 500) if name == overspender else (qty, price)
        trade = f"TRADE {name} {seller} beans {lot} {cost}"
        rules += [
            ScriptRule(contains=f"What would {name} do next", response=f"{name} buys {lot} beans from {seller} for {cost} coin."),
            ScriptRule(contains_all=("extract any completed trade", f"{name} buys"), response=trade),
            ScriptRule(contains_all=("extract any completed trade", f"{name} bought"), response=trade),
            # The veto question also asks "What event results", so it comes first.
            ScriptRule(contains_all=("The attempted action is invalid", f"Attempted action by {name}:"), response=f"{name} tried to buy beans from {seller} but the deal fell through."),
            ScriptRule(contains_all=("What event results", f"Attempted action by {name}:"), response=f"{name} bought {lot} beans from {seller} for {cost} coin."),
        ]
    rules += [
        ScriptRule(contains="extract any completed trade", response="NONE"),
        ScriptRule(contains="What is the state of the world", response="The bean market is busy."),
        ScriptRule(contains="Who observes this event", response="NONE"),
    ]
    inventory = {"type": "inventory", "endowments": endowments}
    config = _config(seed, 8, agents, [inventory])
    return Workload("market", config, tuple(rules), latency_ms=MARKET_LATENCY_MS, endowments=endowments)


def crowd(seed: int) -> Workload:
    """Twenty-four cheap agents; every event fans out to everyone.

    About one actor in four opens the phone on each of their turns and
    books a calendar meeting with someone else, who is notified at their
    next turn.  No component calls the model and nothing retrieves.
    """
    rng = random.Random(seed)
    names = _names(rng, 24)
    phone_users = set(rng.sample(names, 6))
    agents = [
        {
            "name": name,
            "components": [
                {"type": "constant", "name": "goal", "text": f"{name} wants to hear news about {rng.choice(TOPICS)}."},
                {"type": "observations"},
            ],
            "initial_memories": [f"{name} lives near the {rng.choice(PLACES)}."],
        }
        for name in names
    ]
    rules = []
    for name in names:
        place = rng.choice(PLACES)
        if name in phone_users:
            rules += [
                ScriptRule(contains=f"What would {name} do next", response=f"{name} takes out a smartphone to book a meeting."),
                ScriptRule(contains_all=("What event results", f"Attempted action by {name}:"), response=f"{name} opened a smartphone to book a meeting."),
            ]
        else:
            rules += [
                ScriptRule(contains=f"What would {name} do next", response=f"{name} chats with neighbours at the {place}."),
                ScriptRule(contains_all=("What event results", f"Attempted action by {name}:"), response=f"{name} chatted with neighbours at the {place}."),
            ]
        rules.append(_everyone_observes(names, name, f"noticed {name} in the square."))
    for name in sorted(phone_users):
        guest = rng.choice([other for other in names if other != name])
        rules += [
            ScriptRule(contains_all=(f"Has {name} finished using the phone", "Phone: Added"), response="yes"),
            ScriptRule(contains=f"Has {name} finished using the phone", response="no"),
            ScriptRule(contains=f"What does {name} do on the phone", response=f"Add a meeting with {guest} tomorrow at 10:00."),
            ScriptRule(contains_all=(f"{name} wants to:", "parameter 'participant'"), response=guest),
        ]
    rules += [
        ScriptRule(contains_all=("Does this event involve", "smartphone"), response="yes"),
        ScriptRule(contains="Does this event involve", response="no"),
        ScriptRule(contains="Which app action does this correspond to", response="calendar.add_meeting"),
        ScriptRule(contains="parameter 'title'", response="catch-up"),
        ScriptRule(contains="parameter 'when'", response="tomorrow at 10:00"),
        ScriptRule(contains="What is the state of the world", response="The square is crowded."),
    ]
    config = _config(
        seed,
        10,
        agents,
        [{"type": "scene_trigger"}],
        apps=[{"kind": "calendar"}],
        phones={name: ["calendar"] for name in names},
        scene={"minutes": 15, "max_actions": 3, "child_step_minutes": 1},
    )
    return Workload("crowd", config, tuple(rules), latency_ms=0.0, endowments={})


# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "recall": "associative retrieval over four 10k-record memory banks dominates turn time, and embedding those 40k initial memories dominates set-up",
    "market": "serial calls to a 5 ms model set wall time; inventory trade extraction, vetoes and settlement run on every turn",
    "crowd": "24 cheap agents: 24-way observation fan-out, no retrieval, nested phone scenes; per-turn engine overhead dominates",
}
GENERATORS = {"recall": recall, "market": market, "crowd": crowd}

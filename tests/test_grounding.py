from __future__ import annotations

from datetime import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gabm.agent import GenerativeAgent
from gabm.errors import ConfigError
from gabm.game_master import GameMaster, Questionnaire, administer_questionnaire
from gabm.grounding import (
    CENT,
    MAX_QUANTITY,
    InventoryComponent,
    InventoryState,
    LocationComponent,
    Trade,
    apply_transfer,
    parse_trade_from_event,
    as_quantity,
)
from gabm.kernel import ActionSpec, GameClock, OutputKind
from gabm.model import ScriptedModel, ScriptRule

from conftest import memory_texts

T0 = datetime(2024, 5, 1, 9, 0)


def basic_inventory() -> InventoryState:
    return InventoryState(
        endowments={
            "Alice": {"coin": 10, "beans": 3},
            "Bob": {"coin": "2.50"},
        },
        items=["beans", "lamp"],
    )


def test_quantities_are_two_decimal_fixed_point():
    assert as_quantity(1) == Decimal("1.00")
    assert as_quantity("2.5") == Decimal("2.50")
    assert as_quantity(0.1) == Decimal("0.10")
    assert as_quantity("1.005") == Decimal("1.00")  # banker's rounding on the half-cent
    with pytest.raises(ConfigError):
        as_quantity("-1")
    with pytest.raises(ConfigError):
        as_quantity("eleven")
    assert as_quantity(MAX_QUANTITY - CENT) == Decimal("999999999999999.99")
    for oversized in (MAX_QUANTITY, "99900000000000000000000000.01"):
        with pytest.raises(ConfigError):
            as_quantity(oversized)


def test_inventory_universe_and_zero_fill():
    inventory = basic_inventory()
    assert inventory.items == ["beans", "coin", "lamp"]
    assert inventory.players() == ["Alice", "Bob"]
    assert inventory.get("Bob", "beans") == Decimal("0.00")
    assert inventory.get("Bob", "coin") == Decimal("2.50")
    assert inventory.total("coin") == Decimal("12.50")
    with pytest.raises(ConfigError):
        inventory.get("Zed", "coin")
    with pytest.raises(ConfigError):
        inventory.get("Alice", "gold")
    with pytest.raises(ConfigError):
        inventory.total("gold")


def test_transfer_moves_or_refuses_without_mutation():
    inventory = basic_inventory()
    ok = apply_transfer(inventory, "Alice", "Bob", "beans", Decimal("2"))
    assert ok.ok and ok.reason == "transfer succeeded"
    assert inventory.get("Alice", "beans") == Decimal("1.00")
    assert inventory.get("Bob", "beans") == Decimal("2.00")
    refused = apply_transfer(inventory, "Bob", "Alice", "coin", Decimal("99"))
    assert not refused.ok
    assert refused.reason == "insufficient coin"
    assert inventory.get("Bob", "coin") == Decimal("2.50")
    assert inventory.get("Alice", "coin") == Decimal("10.00")
    with pytest.raises(ValueError):
        apply_transfer(inventory, "Alice", "Bob", "beans", Decimal("0"))
    with pytest.raises(ConfigError):
        apply_transfer(inventory, "Alice", "Zed", "beans", Decimal("1"))


@settings(max_examples=60, deadline=None)
@given(
    moves=st.lists(
        st.tuples(
            st.sampled_from(["Alice", "Bob", "Caro"]),
            st.sampled_from(["Alice", "Bob", "Caro"]),
            st.sampled_from(["coin", "beans"]),
            st.decimals(min_value="0.01", max_value="50", places=2),
        ),
        max_size=40,
    )
)
def test_transfers_conserve_totals_and_stay_non_negative(moves):
    inventory = InventoryState(
        endowments={
            "Alice": {"coin": 20, "beans": 5},
            "Bob": {"coin": 7},
            "Caro": {"beans": 12},
        }
    )
    start = {item: inventory.total(item) for item in inventory.items}
    for frm, to, item, qty in moves:
        apply_transfer(inventory, frm, to, item, qty)
    for item in inventory.items:
        assert inventory.total(item) == start[item]
        for player in inventory.players():
            assert inventory.get(player, item) >= 0


def test_trade_line_grammar():
    inventory = basic_inventory()
    answer = (
        "TRADE Bob Alice beans 2 1.50\n"
        "NONE\n"
        "trade bob alice beans two 1\n"
        "TRADE Bob Alice beans 2\n"
        "TRADE Zed Alice beans 1 1\n"
        "TRADE Bob Alice unicorn 1 1\n"
        "TRADE Bob Alice beans 0 1\n"
        "TRADE Bob Alice beans 1 99900000000000000000000000.01"
    )
    trades, warnings = parse_trade_from_event(inventory, answer)
    assert trades == [
        Trade(buyer="Bob", seller="Alice", item="beans", qty=Decimal("2.00"), price=Decimal("1.50"))
    ]
    assert len(warnings) == 6
    kinds = "\n".join(warnings)
    assert "unusable quantity in trade line: 'trade bob alice beans two 1'" in kinds
    assert "unusable quantity in trade line: 'TRADE Bob Alice beans 1 99900000000000000000000000.01'" in kinds
    assert "unparseable trade line" in kinds
    assert "unknown trader" in kinds
    assert "unknown item" in kinds
    assert "non-positive quantity" in kinds


def test_trade_extraction_none_means_no_trades():
    trades, warnings = parse_trade_from_event(basic_inventory(), "NONE")
    assert trades == [] and warnings == []


def trade_gm(endowments, rules, default="waits", items=None, actors=None):
    model = ScriptedModel(rules=rules, default_response=default)
    players = [GenerativeAgent(name, model) for name in (actors or endowments)]
    inventory = InventoryComponent(endowments, items=items)
    gm = GameMaster(
        model=model,
        players=players,
        clock=GameClock(T0, step_minutes=60),
        components=[inventory],
    )
    return gm, inventory, model


def test_affordable_trade_settles_atomically_through_a_turn():
    # Alice buys 2 beans from Bob for 3 coin.  The acting player is Alice;
    # the event statement carries the trade and the inventory settles it.
    gm, inventory, _ = trade_gm(
        endowments={"Alice": {"coin": 10}, "Bob": {"beans": 5}},
        rules=[
            ScriptRule(contains="What would", response="buys beans from Bob"),
            ScriptRule(
                contains="extract any completed trade",
                response="TRADE Alice Bob beans 2 3",
            ),
            ScriptRule(contains="What event results", response="Alice bought 2 beans from Bob."),
        ],
        actors=["Alice"],
    )
    result = gm.run_episode(max_steps=1)
    assert inventory.inventory.get("Alice", "beans") == Decimal("2.00")
    assert inventory.inventory.get("Alice", "coin") == Decimal("7.00")
    assert inventory.inventory.get("Bob", "beans") == Decimal("3.00")
    assert inventory.inventory.get("Bob", "coin") == Decimal("3.00")
    amendments = [note for note in result.trace[0].notes if "Amendment" in note]
    assert amendments == [
        "inventory: Amendment: transfer of 2.00 beans from Bob to Alice for 3.00 coin succeeded."
    ]


def test_unaffordable_attempt_is_vetoed_and_narrated_as_failure():
    # Bob tries to buy 100 beans with 1 coin; the pre-event extraction vetoes,
    # the outcome narrates failure, and nothing moves.
    gm, inventory, model = trade_gm(
        endowments={"Alice": {"beans": 5}, "Bob": {"coin": 1}},
        rules=[
            ScriptRule(contains="What would", response="tries to buy all the beans"),
            ScriptRule(
                contains="extract any completed trade",
                response="TRADE Bob Alice beans 100 1",
            ),
            ScriptRule(
                contains="The attempted action is invalid",
                response="Bob reached for the beans but the deal fell through.",
            ),
        ],
        actors=["Bob"],
    )
    bob = gm.player("Bob")
    result = gm.run_episode(max_steps=1)
    record = next(r for r in result.trace if r.actor == "Bob")
    assert record.event == "Bob reached for the beans but the deal fell through."
    assert inventory.inventory.get("Alice", "beans") == Decimal("5.00")
    assert inventory.inventory.get("Bob", "coin") == Decimal("1.00")
    assert "Your action was invalid: insufficient beans." in memory_texts(bob.memory)


@pytest.mark.parametrize("purse_first", [False, True], ids=["ledger-first", "purse-first"])
def test_an_action_another_inventory_vetoes_settles_in_none(purse_first):
    # The purse cannot pay for the trade that the ledger could cover.  The
    # event narrates a failed attempt, so neither inventory settles it.
    ledger = InventoryComponent({"Alice": {"coin": 5}, "Bob": {"beans": 2}}, name="ledger")
    purse = InventoryComponent({"Alice": {"coin": 0}, "Bob": {"beans": 2}}, name="purse")
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="What would", response="buys beans from Bob"),
            ScriptRule(contains="extract any completed trade", response="TRADE Alice Bob beans 2 3"),
            ScriptRule(
                contains="The attempted action is invalid",
                response="Alice reached for the beans but could not pay.",
            ),
        ],
        default_response="waits",
    )
    gm = GameMaster(
        model=model,
        players=[GenerativeAgent("Alice", model)],
        clock=GameClock(T0, step_minutes=60),
        components=[purse, ledger] if purse_first else [ledger, purse],
    )
    [record] = gm.run_episode(max_steps=1).trace
    assert record.event == "Alice reached for the beans but could not pay."
    assert not any("Amendment" in note for note in record.notes)
    assert ledger.state() == "Alice has 0.00 beans, 5.00 coin.\nBob has 2.00 beans, 0.00 coin."
    assert purse.state() == "Alice has 0.00 beans, 0.00 coin.\nBob has 2.00 beans, 0.00 coin."
    assert "Your action was invalid: insufficient coin." in memory_texts(gm.player("Alice").memory)


def test_settle_refuses_when_post_event_balance_is_short():
    # No veto path here: settle() itself must refuse and leave both legs alone.
    gm, inventory, _ = trade_gm(
        endowments={"Alice": {"coin": 2}, "Bob": {"beans": 1}},
    rules=[],
    )
    record = gm.begin_record("turn", 0, "Alice")
    outcome = inventory.settle(
        gm,
        "Alice", Trade(buyer="Alice", seller="Bob", item="beans", qty=Decimal("1"), price=Decimal("5"))
    )
    gm.finish_record(record)
    assert not outcome.ok and outcome.reason == "insufficient coin"
    assert inventory.inventory.get("Bob", "beans") == Decimal("1.00")
    assert inventory.inventory.get("Alice", "coin") == Decimal("2.00")
    assert record.observations[0].text == "Your action was invalid: insufficient coin."
    assert any("trade refused" in note for note in record.notes)


def test_settlement_at_the_largest_quantities_conserves_coin_exactly():
    # Both purses at the bound: their sum must not round to Decimal's 28 digits.
    top = MAX_QUANTITY - CENT
    both = Decimal("1999999999999999.98")
    gm, inventory, _ = trade_gm(
        endowments={"Alice": {"coin": top, "beans": 1}, "Bob": {"coin": top}},
        rules=[],
    )
    assert inventory.inventory.total("coin") == both
    record = gm.begin_record("turn", 0, "Bob")
    trade = Trade(buyer="Bob", seller="Alice", item="beans", qty=Decimal("1"), price=top)
    outcome = inventory.settle(gm, "Bob", trade)
    gm.finish_record(record)
    assert outcome.ok
    assert inventory.inventory.get("Alice", "coin") == both
    assert inventory.inventory.get("Bob", "coin") == Decimal("0.00")
    assert inventory.inventory.total("coin") == both


def test_inventory_states_render_holdings():
    inventory = InventoryComponent({"Alice": {"coin": 1, "beans": 2}, "Bob": {}})
    assert inventory.state() == (
        "Alice has 2.00 beans, 1.00 coin.\nBob has 0.00 beans, 0.00 coin."
    )
    assert inventory.partial_state("Alice") == "You have 2.00 beans, 1.00 coin."
    assert inventory.partial_state("Zed") == ""


def test_location_component_tracks_and_renders():
    locations = LocationComponent({"Alice": "Pub", "Bob": "market"})
    assert locations.state() == "Alice is at the pub. Bob is at the market."
    assert locations.partial_state("Alice") == "You are at the pub."
    assert locations.partial_state("Zed") == ""


def questionnaire_gm():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="satisfied", response="Agree"),
            ScriptRule(contains="how many hours", response="about 7 hours"),
        ],
        default_response="fine",
    )
    players = [GenerativeAgent(n, model) for n in ("Alice", "Bob")]
    gm = GameMaster(model=model, players=players, clock=GameClock(T0, step_minutes=60))
    questionnaire = Questionnaire(
        "wellbeing",
        [
            ActionSpec("Is {name} satisfied with today?", OutputKind.CHOICE, ("Agree", "Disagree")),
            ActionSpec("About how many hours did {name} sleep?", OutputKind.FLOAT),
        ],
    )
    return gm, questionnaire


def test_questionnaire_records_answers_per_player():
    gm, questionnaire = questionnaire_gm()
    for name in ("Alice", "Bob"):
        assert administer_questionnaire(questionnaire, gm, name) == ["Agree", "7"]
    assert [r.kind for r in gm.trace] == ["questionnaire"] * 4
    assert [r.actor for r in gm.trace] == ["Alice", "Alice", "Bob", "Bob"]
    assert [r.action.text for r in gm.trace] == ["Agree", "7"] * 2


def test_questionnaire_leaves_clock_and_state_alone():
    gm, questionnaire = questionnaire_gm()
    administer_questionnaire(questionnaire, gm, "Alice")
    assert gm.clock.current_time == T0
    assert gm.clock.step_index == 0
    assert [r.event for r in gm.trace] == ["", ""]  # no events were resolved


def test_questionnaire_no_response_fallback():
    model = ScriptedModel(default_response="I refuse to answer with a number")
    # The fallback kicks in for CHOICE questions too.
    player = GenerativeAgent("Alice", model)
    gm = GameMaster(model=model, players=[player], clock=GameClock(T0))
    questionnaire = Questionnaire(
        "stubborn",
        [
            ActionSpec("Yes or no, {name}?", OutputKind.CHOICE, ("yes", "no")),
        ],
    )
    assert administer_questionnaire(questionnaire, gm, "Alice") == ["no-response"]
    assert any("no usable answer" in note for note in gm.trace[0].notes)


def test_questionnaire_requires_questions():
    with pytest.raises(ValueError):
        Questionnaire("empty", [])

"""Grounded variables: inventories, locations, and questionnaires.

These components keep authoritative numeric and positional state next to
the narrative.  The inventory treats money as the item "coin" with
fixed-point two-decimal arithmetic; every mutation goes through
``apply_transfer``, which either moves the full quantity or refuses and
says why.  Items are never minted or burned outside the initial endowment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from .agent import GenerativeAgent
from .errors import ConfigError, InvalidModelOutput, NoMatchingOption
from .kernel import ActionSpec, AgentAction, EventStatement
from .game_master import Effect, GameMaster, GMComponent

MONEY_ITEM = "coin"
CENT = Decimal("0.01")


def as_quantity(value) -> Decimal:
    """Normalize any numeric-ish input to a non-negative 2-decimal amount."""
    try:
        amount = Decimal(str(value)).quantize(CENT)
    except InvalidOperation as exc:
        raise ConfigError(f"not a quantity: {value!r}") from exc
    if amount.is_nan():
        raise ConfigError(f"not a quantity: {value!r}")
    if amount < 0:
        raise ConfigError(f"quantities cannot be negative: {value!r}")
    return amount


class InventoryState:
    """Per-player holdings over a fixed item universe."""

    def __init__(self, endowments: dict[str, dict[str, object]], items: list[str] | None = None):
        universe: set[str] = set(items or [])
        universe.add(MONEY_ITEM)
        for holdings in endowments.values():
            universe.update(holdings)
        self.items = sorted(universe)
        self.balances: dict[str, dict[str, Decimal]] = {}
        for player, holdings in endowments.items():
            row = {item: Decimal("0.00") for item in self.items}
            for item, qty in holdings.items():
                row[item] = as_quantity(qty)
            self.balances[player] = row

    def players(self) -> list[str]:
        return sorted(self.balances)

    def get(self, player: str, item: str) -> Decimal:
        self._check(player, item)
        return self.balances[player][item]

    def total(self, item: str) -> Decimal:
        if item not in self.items:
            raise ConfigError(f"unknown item {item!r}")
        return sum((row[item] for row in self.balances.values()), Decimal("0.00"))

    def _check(self, player: str, item: str) -> None:
        if player not in self.balances:
            raise ConfigError(f"unknown player {player!r}")
        if item not in self.items:
            raise ConfigError(f"unknown item {item!r}")


@dataclass(frozen=True)
class TransferResult:
    ok: bool
    reason: str = ""


def apply_transfer(inventory: InventoryState, frm: str, to: str, item: str, qty: Decimal) -> TransferResult:
    """Move qty of item between players, or refuse without touching anything."""
    inventory._check(frm, item)
    inventory._check(to, item)
    qty = as_quantity(qty)
    if qty <= 0:
        raise ValueError("transfer quantity must be positive")
    if inventory.balances[frm][item] < qty:
        return TransferResult(ok=False, reason=f"insufficient {item}")
    inventory.balances[frm][item] -= qty
    inventory.balances[to][item] += qty
    return TransferResult(ok=True, reason="transfer succeeded")


@dataclass(frozen=True)
class Trade:
    buyer: str
    seller: str
    item: str
    qty: Decimal
    price: Decimal


TRADE_PROMPT = (
    "Read the following text and extract any completed trade.\n"
    "Text: {text}\n"
    "Answer with one line per trade in the exact form "
    "'TRADE buyer seller item qty price' (qty and price are numbers, price is "
    "paid in coin by the buyer to the seller), or the single word NONE."
)


def parse_trade_from_event(
    inventory: InventoryState, text: str, model, caller: str = "grounding:inventory:extract"
) -> tuple[list[Trade], list[str]]:
    """One model call extracting trades under a strict line grammar.

    Returns (trades, warnings).  A line that does not parse, or that names
    an unknown player or item, contributes a warning and no trade:
    ambiguity is a logged no-op, never a guess.
    """
    raw = model.sample_text(TRADE_PROMPT.replace("{text}", text), caller=caller)
    trades: list[Trade] = []
    warnings: list[str] = []
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.upper() == "NONE":
            continue
        tokens = line.split()
        if len(tokens) != 6 or tokens[0].upper() != "TRADE":
            warnings.append(f"unparseable trade line: {line!r}")
            continue
        _, buyer, seller, item, qty_text, price_text = tokens
        try:
            qty = as_quantity(qty_text)
            price = as_quantity(price_text)
        except ConfigError:
            warnings.append(f"non-numeric quantity in trade line: {line!r}")
            continue
        if buyer not in inventory.balances or seller not in inventory.balances:
            warnings.append(f"unknown trader in line: {line!r}")
            continue
        if item not in inventory.items:
            warnings.append(f"unknown item in line: {line!r}")
            continue
        if qty <= 0:
            warnings.append(f"non-positive quantity in trade line: {line!r}")
            continue
        trades.append(Trade(buyer=buyer, seller=seller, item=item, qty=qty, price=price))
    return trades, warnings


class InventoryComponent(GMComponent):
    """Game-master component enforcing inventory grounding on every turn.

    Before resolution it extracts the attempted trade and vetoes anything
    the balances cannot cover, so the narrated event describes a failed
    attempt.  After resolution it extracts trades from the event statement
    and settles them; both legs of a trade move atomically or not at all.
    Both extractions are the component's queries; the notes, the veto and
    the settlement are their effects.
    """

    def __init__(
        self,
        endowments: dict[str, dict[str, object]] | None = None,
        items: list[str] | None = None,
        name: str = "inventory",
    ):
        super().__init__(name)
        self.inventory = InventoryState(endowments or {}, items)
        self._vetoed = False

    def state(self) -> str:
        lines = []
        for player in self.inventory.players():
            row = self.inventory.balances[player]
            holdings = ", ".join(f"{row[item]} {item}" for item in self.inventory.items)
            lines.append(f"{player} has {holdings}.")
        return "\n".join(lines)

    def partial_state(self, player: str) -> str:
        if player not in self.inventory.balances:
            return ""
        row = self.inventory.balances[player]
        holdings = ", ".join(f"{row[item]} {item}" for item in self.inventory.items)
        return f"You have {holdings}."

    def _affordability(self, trade: Trade) -> str | None:
        if self.inventory.get(trade.seller, trade.item) < trade.qty:
            return f"insufficient {trade.item}"
        if trade.price > 0 and self.inventory.get(trade.buyer, MONEY_ITEM) < trade.price:
            return f"insufficient {MONEY_ITEM}"
        return None

    def update_before_event(self, cause: AgentAction) -> None:
        self._vetoed = False

    def query_before_event(self, cause: AgentAction) -> Effect:
        assert self.gm is not None
        trades, warnings = parse_trade_from_event(self.inventory, cause.text, self.gm.model)
        return functools.partial(self._check_attempt, trades, warnings)

    def _check_attempt(self, trades: list[Trade], warnings: list[str]) -> None:
        self._note_warnings(warnings)
        for trade in trades:
            reason = self._affordability(trade)
            if reason is not None:
                self.gm.veto(reason)
                self._vetoed = True
                return

    def _note_warnings(self, warnings: list[str]) -> None:
        for warning in warnings:
            self.gm.audit_note(f"{self.name}: {warning}")

    def settle(self, actor: str, trade: Trade) -> TransferResult:
        """Apply one trade atomically; on refusal tell the actor why."""
        assert self.gm is not None
        reason = self._affordability(trade)
        if reason is None:
            if trade.qty > 0:
                apply_transfer(self.inventory, trade.seller, trade.buyer, trade.item, trade.qty)
            if trade.price > 0:
                apply_transfer(self.inventory, trade.buyer, trade.seller, MONEY_ITEM, trade.price)
            amendment = (
                f"Amendment: transfer of {trade.qty} {trade.item} from {trade.seller} "
                f"to {trade.buyer} for {trade.price} {MONEY_ITEM} succeeded."
            )
            self.gm.memory.add(amendment, self.gm.clock.current_time)
            self.gm.audit_note(f"{self.name}: {amendment}")
            return TransferResult(ok=True, reason="transfer succeeded")
        self.gm.emit_observation(self.name, actor, f"Your action was invalid: {reason}.")
        self.gm.audit_note(f"{self.name}: trade refused ({reason})")
        return TransferResult(ok=False, reason=reason)

    def query_after_event(self, event: EventStatement) -> Effect | None:
        assert self.gm is not None
        if self._vetoed:
            # The failed attempt was already narrated; nothing settles.
            return None
        trades, warnings = parse_trade_from_event(self.inventory, event.text, self.gm.model)
        return functools.partial(self._settle_event, event.cause.actor, trades, warnings)

    def _settle_event(self, actor: str, trades: list[Trade], warnings: list[str]) -> None:
        self._note_warnings(warnings)
        for trade in trades:
            self.settle(actor, trade)


class LocationComponent(GMComponent):
    """Keeps exactly one lowercase location label per player."""

    def __init__(self, locations: dict[str, str] | None = None, name: str = "locations"):
        super().__init__(name)
        self.locations = {player: label.lower() for player, label in (locations or {}).items()}

    def state(self) -> str:
        return " ".join(
            f"{player} is at the {self.locations[player]}." for player in sorted(self.locations)
        )

    def partial_state(self, player: str) -> str:
        if player not in self.locations:
            return ""
        return f"You are at the {self.locations[player]}."


@dataclass
class AnswerSheet:
    player: str
    administration: int
    answers: list[tuple[str, str]] = field(default_factory=list)


class Questionnaire:
    """An ordered battery of questions, administered off the game clock."""

    def __init__(self, name: str, questions: list[ActionSpec]):
        if not questions:
            raise ValueError("a questionnaire needs at least one question")
        self.name = name
        self.questions = list(questions)
        self.sheets: list[AnswerSheet] = []


def administer_questionnaire(
    questionnaire: Questionnaire, gm: GameMaster, player_name: str
) -> AnswerSheet:
    """Ask one player every question; the clock and grounded state hold still.

    Each question becomes one trace record tagged "questionnaire".  A model
    that keeps answering garbage yields the literal answer "no-response".
    """
    player: GenerativeAgent = gm.player(player_name)
    sheet = AnswerSheet(
        player=player_name,
        administration=sum(1 for s in questionnaire.sheets if s.player == player_name),
    )
    for spec in questionnaire.questions:
        record, recorder = gm.begin_record("questionnaire", gm.clock.step_index, player_name)
        try:
            try:
                action = player.act(spec)
                answer = action.text
                record.action = action
            except (InvalidModelOutput, NoMatchingOption):
                answer = "no-response"
                record.notes.append(f"{questionnaire.name}: no usable answer")
            record.prompts.append(player.last_prompt)
            record.agent_states = player.component_states()
        finally:
            gm.finish_record(record, recorder)
        sheet.answers.append((spec.call_to_action, answer))
    questionnaire.sheets.append(sheet)
    return sheet

"""Grounded variables: inventories and locations.

These components keep authoritative numeric and positional state next to
the narrative.  The inventory treats money as the item "coin" with
fixed-point two-decimal arithmetic; every mutation goes through
``apply_transfer``, which either moves the full quantity or refuses and
says why.  Items are never minted or burned outside the initial endowment.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from .errors import ConfigError
from .kernel import AgentAction, EventStatement
from .game_master import GameMaster, GMComponent

MONEY_ITEM = "coin"
CENT = Decimal("0.01")
# Far below Decimal's 28 significant digits, so sums of balances are exact.
MAX_QUANTITY = Decimal(10) ** 15


def as_quantity(value) -> Decimal:
    """Normalize any numeric-ish input to a 2-decimal amount in [0, MAX_QUANTITY)."""
    try:
        amount = Decimal(str(value)).quantize(CENT)
    except InvalidOperation as exc:
        raise ConfigError(f"not a quantity: {value!r}") from exc
    if amount.is_nan():
        raise ConfigError(f"not a quantity: {value!r}")
    if amount < 0:
        raise ConfigError(f"quantities cannot be negative: {value!r}")
    if amount >= MAX_QUANTITY:
        raise ConfigError(f"quantities must be below {MAX_QUANTITY}: {value!r}")
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


def _trade_ask(text: str) -> tuple[str, str]:
    """The (prompt, caller) ask that extracts the trades in ``text``."""
    return TRADE_PROMPT.replace("{text}", text), "grounding:inventory:extract"


def parse_trade_from_event(inventory: InventoryState, raw: str) -> tuple[list[Trade], list[str]]:
    """Parse the answer to a trade extraction ask under a strict line grammar.

    Returns (trades, warnings).  A line that does not parse, or that names
    an unknown player or item, contributes a warning and no trade:
    ambiguity is a logged no-op, never a guess.
    """
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
            warnings.append(f"unusable quantity in trade line: {line!r}")
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
    Both extractions are the component's asks; its answer hooks parse them
    and make the notes, the veto and the settlement.
    """

    def __init__(
        self,
        endowments: dict[str, dict[str, object]] | None = None,
        items: list[str] | None = None,
        name: str = "inventory",
    ):
        super().__init__(name)
        self.inventory = InventoryState(endowments or {}, items)

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

    def query_before_event(self, gm: GameMaster, cause: AgentAction) -> tuple[str, str]:
        return _trade_ask(cause.text)

    def answer_before_event(self, gm: GameMaster, cause: AgentAction, answer: str) -> None:
        for trade in self._parse_noting_warnings(gm, answer):
            reason = self._affordability(trade)
            if reason is not None:
                gm.veto(reason)
                return

    def _parse_noting_warnings(self, gm: GameMaster, answer: str) -> list[Trade]:
        trades, warnings = parse_trade_from_event(self.inventory, answer)
        for warning in warnings:
            gm.audit_note(f"{self.name}: {warning}")
        return trades

    def settle(self, gm: GameMaster, actor: str, trade: Trade) -> TransferResult:
        """Apply one trade atomically; on refusal tell the actor why."""
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
            gm.audit_note(f"{self.name}: {amendment}")
            return TransferResult(ok=True, reason="transfer succeeded")
        gm.emit_observation(actor, f"Your action was invalid: {reason}.")
        gm.audit_note(f"{self.name}: trade refused ({reason})")
        return TransferResult(ok=False, reason=reason)

    def query_after_event(self, gm: GameMaster, event: EventStatement) -> tuple[str, str] | None:
        if gm.veto_reason is not None:
            # The event narrates a failed attempt, whichever component
            # vetoed it; nothing settles.
            return None
        return _trade_ask(event.text)

    def answer_after_event(self, gm: GameMaster, event: EventStatement, answer: str | None) -> None:
        if answer is None:
            # Vetoed: nothing was asked, and nothing settles.
            return
        for trade in self._parse_noting_warnings(gm, answer):
            self.settle(gm, event.cause.actor, trade)


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

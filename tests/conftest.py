"""Test support shared by the test modules."""

from __future__ import annotations

import pytest

from gabm.kernel import ModelCall
from gabm.memory import MemoryBank
from gabm.model import close_calls, open_calls


@pytest.fixture
def calls():
    """The model calls the test makes, recorded as a trace record holds them."""
    recorded: list[ModelCall] = []
    token = open_calls(recorded)
    yield recorded
    close_calls(token)


def memory_texts(bank: MemoryBank) -> list[str]:
    """Every text in the bank, oldest first."""
    return [record.text for record in bank.snapshot()]

"""Test support shared by the test modules."""

from __future__ import annotations

import pytest
from hypothesis import settings

from gabm.kernel import ModelCall
from gabm.memory import MemoryBank
from gabm.model import close_calls, open_calls

# A longer run of the oracle tests: pytest --hypothesis-profile=thorough.
settings.register_profile("thorough", max_examples=1000, deadline=None)


def oracle_settings(max_examples: int) -> settings:
    """Settings of an oracle test: ``max_examples`` examples, or the loaded
    profile's count where that is larger, and no deadline."""
    return settings(max_examples=max(max_examples, settings.default.max_examples), deadline=None)


@pytest.fixture
def calls():
    """The model calls the test makes, recorded as a trace record holds them."""
    recorded: list[ModelCall] = []
    token = open_calls(recorded)
    yield recorded
    close_calls(token)


def memory_texts(bank: MemoryBank) -> list[str]:
    """Every text in the bank, oldest first."""
    return list(bank.texts)

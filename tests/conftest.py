"""Test support shared by the test modules."""

from __future__ import annotations

import pytest
from hypothesis import settings

from gabm.kernel import ModelCall
from gabm.memory import MemoryBank
from gabm.model import GenerativeModel, close_calls, open_calls

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


class SequenceModel(GenerativeModel):
    """Answers each call with the next of ``answers``, whatever its prompt:
    for a retry of the very prompt that got the first answer."""

    backend_id = "sequence"

    def __init__(self, answers: list[str]):
        super().__init__()
        self.answers = list(answers)

    def _complete(self, prompt: str, max_chars: int | None) -> str:
        return self.answers.pop(0)


def memory_texts(bank: MemoryBank) -> list[str]:
    """Every text in the bank, oldest first."""
    return list(bank.texts)

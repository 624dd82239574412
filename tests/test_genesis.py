from __future__ import annotations

import logging
from datetime import datetime

import pytest

from gabm.errors import InvalidModelOutput
from gabm.genesis import (
    MAX_AGE,
    AgentProfile,
    FormativeMemory,
    FormativeMemorySet,
    backdate,
    default_age_ladder,
    generate_and_seed,
    generate_backstory,
    generate_formative_memories,
    seed_memory,
)
from gabm.memory import MemoryBank
from gabm.model import ScriptedModel, ScriptRule

from conftest import memory_texts

START = datetime(2024, 5, 1, 9, 0)


@pytest.mark.parametrize(
    "age,expected",
    [
        (40, [6, 12, 18, 25, 35]),
        (7, [6]),
        (6, []),
        (12, [6]),
        (13, [6, 12]),
        (25, [6, 12, 18]),
        (26, [6, 12, 18, 25]),
        (36, [6, 12, 18, 25, 35]),
        (35, [6, 12, 18, 25]),
        (80, [6, 12, 18, 25, 35, 45, 55, 65, 75]),
        (1, []),
    ],
)
def test_age_ladder_table(age, expected):
    assert default_age_ladder(age) == expected


def test_ladder_rungs_always_below_age():
    for age in range(1, 120):
        assert all(rung < age for rung in default_age_ladder(age))


def test_profile_validation_and_traits_text():
    with pytest.raises(ValueError):
        AgentProfile(name="Kid", age=0)
    with pytest.raises(ValueError):
        AgentProfile(name="Elder", age=MAX_AGE + 1)
    assert AgentProfile(name="Elder", age=MAX_AGE).age == MAX_AGE
    assert len(default_age_ladder(MAX_AGE)) == 16
    profile = AgentProfile(name="Ada", age=30, traits=("stubborn", "kind"))
    assert profile.traits_text() == "stubborn, kind"
    assert AgentProfile(name="Ada", age=30).traits_text() == "(none given)"


def test_backstory_prompt_carries_profile_verbatim(calls):
    model = ScriptedModel(default_response="Ada grew up near the docks.")
    profile = AgentProfile(
        name="Ada", age=34, traits=("stubborn", "secretly sentimental"), context="runs a ferry"
    )
    backstory = generate_backstory(profile, model)
    assert backstory == "Ada grew up near the docks."
    prompt = calls[0].prompt
    assert "Name: Ada" in prompt
    assert "Age: 34" in prompt
    assert "Traits: stubborn, secretly sentimental" in prompt
    assert "Context: runs a ferry" in prompt
    assert calls[0].caller == "genesis:Ada:backstory"


def test_backstory_retries_once_then_fails(calls):
    # Empty first answer, non-empty second: the retry saves the run.
    model = ScriptedModel(
        rules=[ScriptRule(contains="biography", response="   ", max_uses=1)],
        default_response="A patient person.",
    )
    profile = AgentProfile(name="Ada", age=34)
    assert generate_backstory(profile, model) == "A patient person."
    assert len(calls) == 2
    calls.clear()
    # Empty twice: give up.
    hopeless = ScriptedModel(default_response="")
    with pytest.raises(InvalidModelOutput):
        generate_backstory(profile, hopeless)
    assert len(calls) == 2


def test_formative_memories_one_call_per_age(calls):
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="at age 6", response="I fell out of a tree."),
            ScriptRule(contains="at age 12", response="I won the spelling bee."),
            ScriptRule(contains="at age 18", response="I left home at dawn."),
        ]
    )
    profile = AgentProfile(name="Ada", age=20, traits=("brave",))
    memory_set = generate_formative_memories(profile, "Ada's story.", model)
    assert [m.age for m in memory_set.memories] == [6, 12, 18]
    assert memory_set.memories[0].text == "I fell out of a tree."
    callers = [c.caller for c in calls]
    assert callers == ["genesis:Ada:age-6", "genesis:Ada:age-12", "genesis:Ada:age-18"]
    prompt = calls[0].prompt
    assert "Biography of Ada:\nAda's story.\n" in prompt
    assert "the traits: brave" in prompt


def test_empty_formative_answer_is_skipped_with_warning(caplog):
    model = ScriptedModel(
        rules=[ScriptRule(contains="at age 12", response="")],
        default_response="I remember it well.",
    )
    profile = AgentProfile(name="Ada", age=20)
    with caplog.at_level(logging.WARNING):
        memory_set = generate_formative_memories(profile, "story", model)
    assert [m.age for m in memory_set.memories] == [6, 18]
    assert "age 12" in caplog.text


def test_backdate_plain_and_leap_day():
    assert backdate(START, 10) == datetime(2014, 5, 1, 9, 0)
    assert backdate(START, 0) == START
    leap = datetime(2024, 2, 29, 8, 0)
    assert backdate(leap, 1) == datetime(2023, 2, 28, 8, 0)
    assert backdate(leap, 4) == datetime(2020, 2, 29, 8, 0)


def test_seed_memory_backdates():
    bank = MemoryBank()
    profile = AgentProfile(name="Ada", age=30)
    memory_set = FormativeMemorySet(
        profile=profile,
        backstory="Ada's whole life.",
        memories=[FormativeMemory(18, "I left home."), FormativeMemory(6, "I got lost.")],
    )
    count = seed_memory(bank, memory_set, START)
    assert count == 3
    assert memory_texts(bank) == ["Ada's whole life.", "I got lost.", "I left home."]
    assert bank.timestamps == [
        datetime(1994, 5, 1, 9, 0),  # birth year
        datetime(2000, 5, 1, 9, 0),  # age 6, 24 years back
        datetime(2012, 5, 1, 9, 0),  # age 18, 12 years back
    ]
    # Seeded memories predate anything the episode will add.
    assert all(moment < START for moment in bank.timestamps)


def test_generate_and_seed_composes():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="Write a short biography", response="Ada, 20, sails."),
            ScriptRule(contains="formative memory", response="I learned to swim."),
        ]
    )
    bank = MemoryBank()
    profile = AgentProfile(name="Ada", age=20)
    memory_set = generate_and_seed(profile, model, bank, START)
    assert memory_set.backstory == "Ada, 20, sails."
    assert len(memory_set.memories) == 3  # ladder for age 20: [6, 12, 18]
    assert len(bank) == 4
    assert memory_texts(bank) == ["Ada, 20, sails."] + ["I learned to swim."] * 3

from __future__ import annotations

import logging
from datetime import datetime

import pytest

from gabm.errors import InvalidModelOutput
from gabm.genesis import MAX_AGE, AgentProfile, backdate, default_age_ladder, generate_lives
from gabm.memory import MemoryBank
from gabm.model import ScriptedModel, ScriptRule

from conftest import SequenceModel, memory_texts

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


def _seeded(profile: AgentProfile, model: ScriptedModel) -> MemoryBank:
    bank = MemoryBank()
    generate_lives([(profile, bank)], model, START)
    return bank


def test_backstory_prompt_carries_profile_verbatim(calls):
    model = ScriptedModel(default_response="Ada grew up near the docks.")
    profile = AgentProfile(
        name="Ada", age=34, traits=("stubborn", "secretly sentimental"), context="runs a ferry"
    )
    bank = _seeded(profile, model)
    assert memory_texts(bank)[0] == "Ada grew up near the docks."
    prompt = calls[0].prompt
    assert "Name: Ada" in prompt
    assert "Age: 34" in prompt
    assert "Traits: stubborn, secretly sentimental" in prompt
    assert "Context: runs a ferry" in prompt
    assert calls[0].caller == "genesis:Ada:backstory"


def test_backstory_retries_once_then_fails(calls):
    # Empty first answer, non-empty second: the retry saves the run.
    model = SequenceModel(["   ", "A patient person."])
    profile = AgentProfile(name="Ada", age=5)  # no rung below 6: the backstory alone
    assert memory_texts(_seeded(profile, model)) == ["A patient person."]
    assert len(calls) == 2
    assert "biography" in calls[0].prompt and calls[1].prompt == calls[0].prompt
    calls.clear()
    # Empty twice: give up, before any rung is asked.
    hopeless = ScriptedModel(default_response="")
    with pytest.raises(InvalidModelOutput):
        _seeded(AgentProfile(name="Ada", age=34), hopeless)
    assert len(calls) == 2


def test_formative_memories_one_call_per_age(calls):
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="Write a short biography", response="Ada's story."),
            ScriptRule(contains="at age 6", response="I fell out of a tree."),
            ScriptRule(contains="at age 12", response="I won the spelling bee."),
            ScriptRule(contains="at age 18", response="I left home at dawn."),
        ]
    )
    profile = AgentProfile(name="Ada", age=20, traits=("brave",))
    bank = _seeded(profile, model)
    assert memory_texts(bank) == [
        "Ada's story.",
        "I fell out of a tree.",
        "I won the spelling bee.",
        "I left home at dawn.",
    ]
    callers = [c.caller for c in calls]
    assert callers == [
        "genesis:Ada:backstory",
        "genesis:Ada:age-6",
        "genesis:Ada:age-12",
        "genesis:Ada:age-18",
    ]
    prompt = calls[1].prompt
    assert "Biography of Ada:\nAda's story.\n" in prompt
    assert "the traits: brave" in prompt


def test_empty_formative_answer_is_skipped_with_warning(caplog):
    model = ScriptedModel(
        rules=[ScriptRule(contains="at age 12", response="")],
        default_response="I remember it well.",
    )
    profile = AgentProfile(name="Ada", age=20)
    with caplog.at_level(logging.WARNING, logger="gabm.genesis"):
        bank = _seeded(profile, model)
    # The backstory at the birth year, then the rungs at 6 and 18.
    assert bank.timestamps == [
        datetime(2004, 5, 1, 9, 0),
        datetime(2010, 5, 1, 9, 0),
        datetime(2022, 5, 1, 9, 0),
    ]
    assert caplog.messages == ["no formative memory for Ada at age 12; skipped"]


def test_backdate_plain_and_leap_day():
    assert backdate(START, 10) == datetime(2014, 5, 1, 9, 0)
    assert backdate(START, 0) == START
    leap = datetime(2024, 2, 29, 8, 0)
    assert backdate(leap, 1) == datetime(2023, 2, 28, 8, 0)
    assert backdate(leap, 4) == datetime(2020, 2, 29, 8, 0)


def test_generate_lives_seeds_each_bank_back_dated():
    model = ScriptedModel(
        rules=[
            ScriptRule(contains="Name: Ada", response="Ada, 20, sails."),
            ScriptRule(contains="Name: Ben", response="Ben, 13, rows."),
            ScriptRule(contains="formative memory", response="I learned to swim."),
        ]
    )
    ada, ben = MemoryBank(), MemoryBank()
    profiles = [AgentProfile(name="Ada", age=20), AgentProfile(name="Ben", age=13)]
    generate_lives(list(zip(profiles, [ada, ben])), model, START)
    assert memory_texts(ada) == ["Ada, 20, sails."] + ["I learned to swim."] * 3  # rungs 6, 12, 18
    assert ada.timestamps == [
        datetime(2004, 5, 1, 9, 0),  # birth year
        datetime(2010, 5, 1, 9, 0),  # age 6, 14 years back
        datetime(2016, 5, 1, 9, 0),  # age 12, 8 years back
        datetime(2022, 5, 1, 9, 0),  # age 18, 2 years back
    ]
    assert memory_texts(ben) == ["Ben, 13, rows."] + ["I learned to swim."] * 2  # rungs 6, 12
    assert ben.timestamps == [
        datetime(2011, 5, 1, 9, 0),
        datetime(2017, 5, 1, 9, 0),
        datetime(2023, 5, 1, 9, 0),
    ]
    # Seeded memories predate anything the episode will add.
    assert all(moment < START for moment in ada.timestamps + ben.timestamps)

"""Seeding agents with a life: backstory plus formative memories.

A profile (name, age, traits, context) turns into one backstory call and
one model call per formative age.  Formative memories are back-dated so a
memory from age A sits (profile age - A) years before the episode start,
which keeps seeded records strictly older than anything the episode adds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime

from .errors import InvalidModelOutput
from .memory import MemoryBank
from .model import GenerativeModel

log = logging.getLogger(__name__)

# Oldest profile age.  The default ladder makes one model call per decade
# of age, and the birth year must still be a valid date.
MAX_AGE = 150

BACKSTORY_PROMPT = (
    "Write a short biography for a fictional person.\n"
    "Name: {name}\n"
    "Age: {age}\n"
    "Traits: {traits}\n"
    "Context: {context}\n"
    "The biography must reflect every trait exactly as written. "
    "Answer with a single paragraph."
)

FORMATIVE_PROMPT = (
    "Biography of {name}:\n{backstory}\n"
    "Invent one specific, formative memory {name} acquired at age {age}. "
    "It must be consistent with the biography and the traits: {traits}. "
    "Answer with one or two sentences in the first person past tense."
)


@dataclass(frozen=True)
class AgentProfile:
    """The facts an agent's life is generated from."""

    name: str
    age: int
    traits: tuple[str, ...] = ()
    context: str = ""

    def __post_init__(self):
        if not 0 < self.age <= MAX_AGE:
            raise ValueError(f"age must lie in [1, {MAX_AGE}]")

    def traits_text(self) -> str:
        return ", ".join(self.traits) if self.traits else "(none given)"


def default_age_ladder(age: int) -> list[int]:
    """Formative ages for a given adult age: 6, 12, 18, 25, then decades.

    Every rung is strictly below the profile age, so an age-40 profile
    yields [6, 12, 18, 25, 35].
    """
    rungs = [6, 12, 18, 25]
    while rungs[-1] + 10 < age:
        rungs.append(rungs[-1] + 10)
    return [rung for rung in rungs if rung < age]


@dataclass(frozen=True)
class FormativeMemory:
    age: int
    text: str


@dataclass
class FormativeMemorySet:
    profile: AgentProfile
    backstory: str
    memories: list[FormativeMemory] = field(default_factory=list)


def generate_backstory(profile: AgentProfile, model: GenerativeModel) -> str:
    """One model call; an empty answer earns exactly one retry, then fails."""
    prompt = (
        BACKSTORY_PROMPT.replace("{name}", profile.name)
        .replace("{age}", str(profile.age))
        .replace("{traits}", profile.traits_text())
        .replace("{context}", profile.context or "(none given)")
    )
    for attempt in range(2):
        raw = model.sample_text(prompt, caller=f"genesis:{profile.name}:backstory").strip()
        if raw:
            return raw
    raise InvalidModelOutput(f"backstory for {profile.name} came back empty twice")


def generate_formative_memories(
    profile: AgentProfile,
    backstory: str,
    model: GenerativeModel,
    ages: list[int] | None = None,
) -> FormativeMemorySet:
    """One model call per target age; a bad age is skipped with a warning."""
    if ages is None:
        ages = default_age_ladder(profile.age)
    for age in ages:
        if age >= profile.age:
            raise ValueError(f"formative age {age} is not below profile age {profile.age}")
    result = FormativeMemorySet(profile=profile, backstory=backstory)
    for age in ages:
        prompt = (
            FORMATIVE_PROMPT.replace("{name}", profile.name)
            .replace("{backstory}", backstory)
            .replace("{age}", str(age))
            .replace("{traits}", profile.traits_text())
        )
        raw = model.sample_text(prompt, caller=f"genesis:{profile.name}:age-{age}").strip()
        if not raw:
            log.warning("no formative memory for %s at age %d; skipped", profile.name, age)
            continue
        result.memories.append(FormativeMemory(age=age, text=raw))
    return result


def backdate(episode_start: datetime, years_before: int) -> datetime:
    """Shift a moment back a whole number of years, clamping leap days."""
    target_year = episode_start.year - years_before
    try:
        return episode_start.replace(year=target_year)
    except ValueError:
        return episode_start.replace(year=target_year, day=28)


def seed_memory(
    bank: MemoryBank,
    memory_set: FormativeMemorySet,
    episode_start: datetime,
) -> int:
    """Write backstory and formative memories into a bank, back-dated.

    The backstory lands at the birth year; each formative memory lands
    (profile age - memory age) years before episode start.  All records get
    importance 1.0.  Returns the number of records written.
    """
    profile = memory_set.profile
    count = 0
    bank.add(memory_set.backstory, backdate(episode_start, profile.age), importance=1.0)
    count += 1
    for memory in sorted(memory_set.memories, key=lambda m: m.age):
        moment = backdate(episode_start, profile.age - memory.age)
        bank.add(memory.text, moment, importance=1.0)
        count += 1
    return count


def generate_and_seed(
    profile: AgentProfile,
    model: GenerativeModel,
    bank: MemoryBank,
    episode_start: datetime,
    ages: list[int] | None = None,
) -> FormativeMemorySet:
    """Backstory, formative memories, and seeding in one sweep."""
    backstory = generate_backstory(profile, model)
    memory_set = generate_formative_memories(profile, backstory, model, ages)
    seed_memory(bank, memory_set, episode_start)
    return memory_set

"""Seeding agents with a life: backstory plus formative memories.

A profile (name, age, traits, context) turns into one backstory call and
one model call per formative age.  Formative memories are back-dated so a
memory from age A sits (profile age - A) years before the episode start,
which keeps seeded records strictly older than anything the episode adds.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass
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


def backdate(episode_start: datetime, years_before: int) -> datetime:
    """Shift a moment back a whole number of years, clamping leap days."""
    target_year = episode_start.year - years_before
    try:
        return episode_start.replace(year=target_year)
    except ValueError:
        return episode_start.replace(year=target_year, day=28)


def generate_lives(
    profiled: Iterable[tuple[AgentProfile, MemoryBank]],
    model: GenerativeModel,
    episode_start: datetime,
) -> None:
    """Seed each bank with its profile's backstory and formative memories.

    Profiles go one at a time, in the order given.  The backstory is one
    call; an empty answer earns exactly one retry, then fails.  It lands at
    the birth year.  Then one call per rung of ``default_age_ladder``, in
    ladder order: each answer lands (profile age - rung) years before
    episode start, and an empty one is skipped with a warning.
    """
    for profile, bank in profiled:
        traits = profile.traits_text()
        prompt = (
            BACKSTORY_PROMPT.replace("{name}", profile.name)
            .replace("{age}", str(profile.age))
            .replace("{traits}", traits)
            .replace("{context}", profile.context or "(none given)")
        )
        for _ in range(2):
            backstory = model.sample_text(prompt, caller=f"genesis:{profile.name}:backstory").strip()
            if backstory:
                break
        else:
            raise InvalidModelOutput(f"backstory for {profile.name} came back empty twice")
        bank.add(backstory, backdate(episode_start, profile.age))
        for age in default_age_ladder(profile.age):
            prompt = (
                FORMATIVE_PROMPT.replace("{name}", profile.name)
                .replace("{backstory}", backstory)
                .replace("{age}", str(age))
                .replace("{traits}", traits)
            )
            raw = model.sample_text(prompt, caller=f"genesis:{profile.name}:age-{age}").strip()
            if not raw:
                log.warning("no formative memory for %s at age %d; skipped", profile.name, age)
                continue
            bank.add(raw, backdate(episode_start, profile.age - age))

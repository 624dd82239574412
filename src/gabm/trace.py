"""Trace files: streaming writer, tolerant reader, audit views, and replay.

A trace is line-delimited JSON.  The first line is a header carrying the
resolved config, its hash, the engine version, and the effective seed and
step budget; every following line is one trace record.  All lines are
canonical JSON (sorted keys, compact separators), which is what makes
byte-for-byte comparison meaningful.  A record line writes each run of
observations shared by several recipients once, and its act prompt only
in its model calls (see ``TraceRecord``).  Each line is decoded on its own,
so a line that is not UTF-8 is one corrupt line, like one that is not JSON.

A config can run to megabytes of initial memories, so a run encodes it
once, in one pass: ``ScenarioConfig`` encodes it with
``canonical_config_json``, which joins each list of texts that holds no
character JSON escapes whole instead of escaping its texts one by one.
The header line is written in pieces, never joined: ``{"config":``, the
config's canonical text (the same text its hash is taken over), then the
rest.  Keys sort, "config" sorts first, and a nested object encodes the
same alone as inside its parent, so the line is byte-equal to
``canonical_json(header.to_dict())``.  On the recall benchmark workload
(four 10k-memory banks, a 2.2 MB config) this took the first turn from
14-16.5 ms to 6-8.5 ms; what is left of it is the sha256 (about 1.6 ms),
the write (about 0.6 ms) and the turn itself.

A run keeps no record; each goes to its ``on_record`` sink.  ``audit``
reads ``read_trace``, which builds every record.  Replay reads the file
once, lazily, feeding each line's model calls back and comparing each
record with its line as it is written, up to the first difference.  A
header that names another engine version is reported as such, whatever
its records hold.  Otherwise replay goes on, in the same pass, to parse
every line no record matched and keep none, so a malformed line anywhere
is reported ahead of any other verdict, as when every record is built
before the run.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import closing, suppress
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from . import config as config_mod
from .errors import ConfigValidationError, SimulationError
from .game_master import EpisodeResult
from .kernel import ModelCall, TraceRecord, canonical_json, format_time, writable
from .model import ReplayModel


@dataclass
class TraceHeader:
    config: dict
    config_hash: str
    engine_version: str
    seed: int
    max_steps: int
    # canonical_json(config), when the header is made from a ScenarioConfig
    # that has already encoded it.
    config_text: str | None = field(default=None, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "engine_version": self.engine_version,
            "seed": self.seed,
            "max_steps": self.max_steps,
        }

    def json_pieces(self) -> tuple[str, str, str]:
        """The header line in three pieces: ``{"config":``, the config's
        canonical text, and the rest of the line."""
        rest = self.to_dict()
        config = rest.pop("config")
        text = self.config_text if self.config_text is not None else canonical_json(config)
        return '{"config":', text, "," + canonical_json(rest)[1:]

    def to_json_line(self) -> str:
        """The whole header line, encoded in one call: the reference that
        ``json_pieces`` must join to."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "TraceHeader":
        return cls(
            config=data["config"],
            config_hash=data["config_hash"],
            engine_version=data["engine_version"],
            seed=data["seed"],
            max_steps=data["max_steps"],
        )


def make_header(built: config_mod.BuiltScenario) -> TraceHeader:
    header = TraceHeader(
        config=built.config.raw,
        config_hash=built.config.config_hash(),
        engine_version=config_mod.ENGINE_VERSION,
        seed=built.seed,
        max_steps=built.max_steps,
    )
    header.config_text = built.config.canonical()
    return header


class TraceWriter:
    """Writes the header eagerly and records as they stream in."""

    def __init__(self, out: TextIO, header: TraceHeader):
        self.out = out
        # Written in pieces, never joined: the config text can be megabytes long.
        for piece in header.json_pieces():
            self.out.write(piece)
        self.out.write("\n")
        self.out.flush()

    def write_record(self, record: TraceRecord) -> None:
        self.out.write(record.to_json_line() + "\n")
        self.out.flush()


@dataclass
class ReadTrace:
    header: TraceHeader | None
    records: list[TraceRecord]
    # (line number, message) for every line that would not parse
    errors: list[tuple[int, str]] = field(default_factory=list)


def _trace_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a trace file that is not blank;
    line 1, if not blank, is the header.

    Each byte that is not UTF-8 is read as a lone surrogate (the
    "surrogateescape" handler), so one bad line hides no other line;
    ``_load`` turns such a line back into its decoding error.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line.strip():
                yield line_no, line


def _load(line: str):
    """The JSON value of a line from ``_trace_lines``; UnicodeDecodeError if
    the line's bytes were not UTF-8."""
    if not writable(line):
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    return json.loads(line)


def _parse(line_no: int, line: str) -> TraceHeader | TraceRecord:
    """Line ``line_no`` of a trace from ``_trace_lines``: line 1 as its
    header, any other line as a record; SimulationError if it is malformed."""
    try:
        return (TraceHeader if line_no == 1 else TraceRecord).from_dict(_load(line))
    except (KeyError, TypeError, ValueError) as exc:
        where = "header" if line_no == 1 else f"record on line {line_no}"
        raise SimulationError(f"bad trace {where}: {exc}") from exc


def read_trace(path: str | Path) -> ReadTrace:
    """Read a trace file; corrupt lines are reported, not fatal.

    A line that is not UTF-8 is a corrupt line, as is one that is not JSON.
    """
    read = ReadTrace(header=None, records=[])
    for line_no, line in _trace_lines(path):
        try:
            parsed = _parse(line_no, line)
        except SimulationError as exc:
            # The line number goes beside the message, not in it.
            read.errors.append((line_no, ("bad header: " if line_no == 1 else "") + str(exc.__cause__)))
            continue
        if line_no == 1:
            read.header = parsed
        else:
            read.records.append(parsed)
    return read


@dataclass
class RunOutcome:
    result: EpisodeResult
    records_written: int


def run_built_scenario(
    built: config_mod.BuiltScenario,
    out: TextIO | None = None,
    on_record: Callable[[TraceRecord], None] | None = None,
) -> RunOutcome:
    """Run one episode, streaming its records; only their count is kept."""
    writer = TraceWriter(out, make_header(built)) if out is not None else None
    written = 0

    def sink(record: TraceRecord) -> None:
        nonlocal written
        written += 1
        if writer is not None:
            writer.write_record(record)
        if on_record is not None:
            on_record(record)

    built.gm.on_record = sink
    try:
        result = built.gm.run_episode(built.max_steps)
    finally:
        built.gm.on_record = None
    return RunOutcome(result=result, records_written=written)


def summarize(outcome: RunOutcome) -> str:
    result = outcome.result
    lines = [
        f"records: {outcome.records_written}",
        f"termination: {result.reason}" + (f" ({result.error})" if result.error else ""),
    ]
    for name, state in result.grounded.items():
        if state:
            flat = state.replace("\n", " | ")
            lines.append(f"grounded {name}: {flat}")
    return "\n".join(lines)


# ---- audit -------------------------------------------------------------------


def filter_records(
    records: Iterable[TraceRecord],
    agent: str | None = None,
    step_range: tuple[int, int] | None = None,
    search: str | None = None,
) -> list[TraceRecord]:
    kept = []
    for record in records:
        if agent is not None and record.actor != agent:
            continue
        if step_range is not None and not (step_range[0] <= record.step <= step_range[1]):
            continue
        if search is not None:
            act = f"agent:{record.actor}:act"
            haystack = "\n".join(
                [
                    record.event,
                    record.action.text if record.action else "",
                    *[c.prompt for c in record.model_calls if c.caller == act],
                    *[o.text for o in record.observations],
                    *record.notes,
                ]
            )
            if search not in haystack:
                continue
        kept.append(record)
    return kept


def render_report(records: Iterable[TraceRecord]) -> str:
    """Human-oriented rendering of (state, action, event, observation) flow."""
    blocks = []
    for record in records:
        lines = [f"[{record.turn}] step {record.step} {record.kind} {record.actor} @ {format_time(record.timestamp)}"]
        for name, state in record.agent_states.items():
            flat = state.replace("\n", " / ")
            lines.append(f"  state {name}: {flat}")
        if record.action is not None:
            lines.append(f"  action: {record.action.text}")
        if record.event:
            lines.append(f"  event: {record.event}")
        for observation in record.observations:
            lines.append(f"  observed by {observation.recipient}: {observation.text}")
        for note in record.notes:
            lines.append(f"  note: {note}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def extract_pairs(records: Iterable[TraceRecord]) -> list[dict]:
    """(component states, chosen action) pairs, e.g. for fine-tuning data."""
    pairs = []
    for record in records:
        if record.action is None:
            continue
        pairs.append(
            {
                "actor": record.actor,
                "states": dict(record.agent_states),
                "action": record.action.text,
            }
        )
    return pairs


# ---- replay ------------------------------------------------------------------


@dataclass
class ReplayReport:
    ok: bool
    records_checked: int
    divergence_step: int | None = None
    detail: str = ""


class _Diverged(Exception):
    """Stops a replay's run at its first record that differs from its line."""


def _embedded_config(path: str | Path, header: TraceHeader | None) -> config_mod.ScenarioConfig | str:
    """The config ``header`` embeds, or why its scenario cannot be re-run."""
    if header is None:
        return "trace has no header"
    # The header's overrides take the config's own field types, as ``gabm run``'s do.
    for name, ftype in (("seed", config_mod.SEED), ("max_steps", config_mod.MAX_STEPS)):
        value = getattr(header, name)
        if not ftype.accepts(value):
            return f"header {name} {ftype.must}, got {value!r}"
    try:
        # The recorded calls stand in for the model, so the script file
        # need not exist where the trace is replayed.
        cfg = config_mod.config_from_dict(header.config, base_dir=Path(path).parent, check_files=False)
    except ConfigValidationError as exc:
        return f"embedded config invalid: {exc}"
    return cfg if cfg.config_hash() == header.config_hash else "config hash mismatch in header"


def _rerun(
    cfg: config_mod.ScenarioConfig, header: TraceHeader, lines: Iterator[tuple[int, str]], held: deque
) -> tuple[int, int | None, str]:
    """Re-run ``cfg`` on the model calls of the numbered record ``lines``,
    checking each record against its line as it is written.

    Returns the records that matched, the records written (None if one
    differed) and the last line a record took.  ``held`` is left with the
    lines read that no record matched, the differing one first.
    """

    def calls() -> Iterator[ModelCall]:
        for line_no, line in lines:
            held.append((line_no, line))
            try:
                yield from map(ModelCall.from_dict, _load(line)["model_calls"])
            except (KeyError, TypeError, ValueError) as exc:
                # Ends the run as a failed call does; replay then names the line.
                raise SimulationError(f"bad trace record on line {line_no}: {exc}") from exc

    checked, last = 0, ""

    def compare(record: TraceRecord) -> None:
        nonlocal checked, last
        # A record whose calls the model has not reached yet has none.
        line = held.popleft() if held else next(lines, None)
        if line is None:
            return  # past the recorded lines, the run ends at its next call
        last = line[1]
        if last != record.to_json_line():
            held.appendleft(line)
            raise _Diverged
        checked += 1

    built = config_mod.build(
        cfg, model=ReplayModel(calls()), seed_override=header.seed, max_steps_override=header.max_steps
    )
    written = None
    with suppress(_Diverged):
        written = run_built_scenario(built, on_record=compare).records_written
    return checked, written, last


def replay(path: str | Path) -> ReplayReport:
    """Re-run a recorded scenario feeding back its model calls.

    The verdict is OK only when the regenerated trace matches the recorded
    one byte for byte; the first differing record is reported otherwise.

    Replay reads the trace once, lazily, and keeps no record; a line that
    is not UTF-8 stops that read.  Each record is compared with its line as
    it is written, and the run stops at the first difference, so only the
    lines the model has read ahead are held: about two, as a turn's record
    is written after the next turn's first calls.  A recorded line equal
    to its regenerated line is the canonical encoding of a record the
    engine made, which ``read_trace`` reads back, so it needs no parse.
    In the same pass, every other line, the held ones and then the rest,
    is parsed after the run and dropped, and the first malformed one raises
    SimulationError.  So a malformed line is reported ahead of a
    divergence, a length mismatch or a header that cannot be re-run, as
    when every record is built before the run.  A line whose model calls
    do not parse ends the run as a failed call does, and that parse then
    names it.
    A header that names another engine version is reported without
    reading any record, because the records of another version may be in
    another format: a 0.2.0 record has no observation groups, and a full
    parse would report that instead of the version.
    """
    held: deque[tuple[int, str]] = deque()  # lines read that no record matched
    with closing(_trace_lines(path)) as numbered:
        # Line 1, if not blank, is the header; without one, no run reads a record line.
        held.extend(islice(numbered, 1))
        header = _parse(*held.popleft()) if held and held[0][0] == 1 else None
        # Another engine version may embed, retrieve or record differently,
        # so its traces are not expected to replay byte for byte.
        if header is not None and header.engine_version != config_mod.ENGINE_VERSION:
            must = f"header engine_version must be {config_mod.ENGINE_VERSION!r}"
            return ReplayReport(ok=False, records_checked=0, detail=f"{must}, got {header.engine_version!r}")
        cfg = _embedded_config(path, header)
        checked, written, last = (0, 0, "") if isinstance(cfg, str) else _rerun(cfg, header, numbered, held)
        recorded = checked
        for line_no, line in chain(held, numbered):
            _parse(line_no, line)  # raises at the first malformed line
            recorded += 1
    if isinstance(cfg, str):
        return ReplayReport(ok=False, records_checked=0, detail=cfg)
    if written is None:
        detail = f"record {checked} differs"
    elif written == recorded:
        return ReplayReport(ok=True, records_checked=checked)
    else:
        detail = f"length mismatch: recorded {recorded} records, regenerated {written}"
    step = _load(last)["step"] if last else 0
    return ReplayReport(ok=False, records_checked=checked, divergence_step=step, detail=detail)

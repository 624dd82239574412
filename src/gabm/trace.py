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

``read_trace`` builds every record and is what ``audit`` reads.  Replay
needs less: it reads the header, the record lines and each line's model
calls, feeds the calls back, and compares lines.  A header that names
another engine version is reported as such, whatever its records hold.
Otherwise, only when that is not OK does it read the trace with
``read_trace(path, strict=True)``, so its errors and their precedence are
those of a replay that builds every record first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def read_trace(path: str | Path, strict: bool = False) -> ReadTrace:
    """Read a trace file; corrupt lines are reported, not fatal, unless strict.

    A line that is not UTF-8 is a corrupt line, as is one that is not JSON.
    """
    header: TraceHeader | None = None
    records: list[TraceRecord] = []
    errors: list[tuple[int, str]] = []
    for line_no, line in _trace_lines(path):
        if line_no == 1:
            try:
                header = TraceHeader.from_dict(_load(line))
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
                if strict:
                    raise SimulationError(f"bad trace header: {exc}") from exc
                errors.append((line_no, f"bad header: {exc}"))
            continue
        try:
            records.append(TraceRecord.from_dict(_load(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if strict:
                raise SimulationError(f"bad trace record on line {line_no}: {exc}") from exc
            errors.append((line_no, str(exc)))
    return ReadTrace(header=header, records=records, errors=errors)


@dataclass
class RunOutcome:
    result: EpisodeResult
    records_written: int


def run_built_scenario(
    built: config_mod.BuiltScenario,
    out: TextIO | None = None,
    on_record: Callable[[TraceRecord], None] | None = None,
) -> RunOutcome:
    """Run one episode, streaming its records."""
    writer = TraceWriter(out, make_header(built)) if out is not None else None

    def sink(record: TraceRecord) -> None:
        if writer is not None:
            writer.write_record(record)
        if on_record is not None:
            on_record(record)

    built.gm.on_record = sink
    try:
        result = built.gm.run_episode(built.max_steps)
    finally:
        built.gm.on_record = None
    return RunOutcome(result=result, records_written=len(result.trace))


def summarize(outcome: RunOutcome) -> str:
    result = outcome.result
    lines = [
        f"records: {len(result.trace)}",
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


def _read_for_replay(path: str | Path) -> tuple[TraceHeader | None, list[str]]:
    """The header and the record lines, building no record."""
    header: TraceHeader | None = None
    lines: list[str] = []
    for line_no, line in _trace_lines(path):
        if line_no == 1:
            header = TraceHeader.from_dict(_load(line))
        else:
            lines.append(line)
    return header, lines


def _rerun(path: str | Path, header: TraceHeader | None, lines: list[str]) -> ReplayReport | list[str]:
    """The record lines a run of ``header``'s scenario regenerates from the
    model calls of ``lines``, or the report of why it cannot run."""
    if header is None:
        return ReplayReport(ok=False, records_checked=0, detail="trace has no header")
    # The header's overrides take the config's own field types, as ``gabm run``'s do.
    for name, ftype in (("seed", config_mod.SEED), ("max_steps", config_mod.MAX_STEPS)):
        value = getattr(header, name)
        if not ftype.accepts(value):
            return ReplayReport(
                ok=False, records_checked=0, detail=f"header {name} {ftype.must}, got {value!r}"
            )
    try:
        # The recorded calls stand in for the model, so the script file
        # need not exist where the trace is replayed.
        cfg = config_mod.config_from_dict(
            header.config, base_dir=Path(path).parent, check_files=False
        )
    except ConfigValidationError as exc:
        return ReplayReport(ok=False, records_checked=0, detail=f"embedded config invalid: {exc}")
    if cfg.config_hash() != header.config_hash:
        return ReplayReport(
            ok=False, records_checked=0, detail="config hash mismatch in header"
        )
    calls = [ModelCall.from_dict(call) for line in lines for call in _load(line)["model_calls"]]
    model = ReplayModel(calls)
    built = config_mod.build(
        cfg, model=model, seed_override=header.seed, max_steps_override=header.max_steps
    )
    outcome = run_built_scenario(built)
    return [record.to_json_line() for record in outcome.result.trace]


def replay(path: str | Path) -> ReplayReport:
    """Re-run a recorded scenario feeding back its model calls.

    The verdict is OK only when the regenerated trace matches the recorded
    one byte for byte; the first differing record is reported otherwise.

    Replay reads only the header, the record lines and their model calls;
    a line that is not UTF-8 stops that read.  A recorded line equal to its
    regenerated line is the canonical encoding of a record the engine made,
    which ``read_trace`` reads back, so the OK verdict needs no other check.
    A header that names another engine version is reported without
    reading any record, because the records of another version may be in
    another format: a 0.2.0 record has no observation groups, and a strict
    read would report that instead of the version.  Any other outcome
    re-reads the trace with ``read_trace(path, strict=True)`` first, so a
    malformed line is reported ahead of anything else, as when every record
    is built before the run.
    """
    try:
        header, lines = _read_for_replay(path)
        # Another engine version may embed, retrieve or record differently,
        # so its traces are not expected to replay byte for byte.
        if header is not None and header.engine_version != config_mod.ENGINE_VERSION:
            return ReplayReport(
                ok=False,
                records_checked=0,
                detail=(
                    f"header engine_version must be {config_mod.ENGINE_VERSION!r}, "
                    f"got {header.engine_version!r}"
                ),
            )
        regenerated = _rerun(path, header, lines)
    except Exception:
        read_trace(path, strict=True)
        raise
    if regenerated == lines:
        return ReplayReport(ok=True, records_checked=len(lines))
    # A strict read returns only when every record line parsed, so its
    # records are those of ``lines``, one for one.
    recorded = read_trace(path, strict=True)
    if isinstance(regenerated, ReplayReport):
        return regenerated
    for i, (old, new) in enumerate(zip(lines, regenerated)):
        if old != new:
            return ReplayReport(
                ok=False,
                records_checked=i,
                divergence_step=recorded.records[i].step,
                detail=f"record {i} differs",
            )
    shorter = min(len(lines), len(regenerated))
    step = recorded.records[shorter - 1].step if recorded.records[:shorter] else 0
    return ReplayReport(
        ok=False,
        records_checked=shorter,
        divergence_step=step,
        detail=(
            f"length mismatch: recorded {len(lines)} records, "
            f"regenerated {len(regenerated)}"
        ),
    )

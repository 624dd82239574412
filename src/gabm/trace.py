"""Trace files: streaming writer, tolerant reader, audit views, and replay.

A trace is line-delimited JSON.  The first line is a header carrying the
resolved config, its hash, the engine version, and the effective seed and
step budget; every following line is one trace record.  All lines are
canonical JSON (sorted keys, compact separators), which is what makes
byte-for-byte comparison meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TextIO

from . import config as config_mod
from .errors import ConfigValidationError, SimulationError
from .game_master import EpisodeResult
from .grounding import administer_questionnaire
from .kernel import ModelCall, TraceRecord, canonical_json
from .model import ReplayModel


@dataclass
class TraceHeader:
    config: dict
    config_hash: str
    engine_version: str
    seed: int
    max_steps: int

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "engine_version": self.engine_version,
            "seed": self.seed,
            "max_steps": self.max_steps,
        }

    def to_json_line(self) -> str:
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
    return TraceHeader(
        config=built.config.raw,
        config_hash=built.config.config_hash(),
        engine_version=config_mod.ENGINE_VERSION,
        seed=built.seed,
        max_steps=built.max_steps,
    )


class TraceWriter:
    """Writes the header eagerly and records as they stream in."""

    def __init__(self, out: TextIO, header: TraceHeader):
        self.out = out
        self.count = 0
        self.out.write(header.to_json_line() + "\n")
        self.out.flush()

    def write_record(self, record: TraceRecord) -> None:
        self.out.write(record.to_json_line() + "\n")
        self.out.flush()
        self.count += 1


@dataclass
class ReadTrace:
    header: TraceHeader | None
    records: list[TraceRecord]
    # (line number, message) for every line that would not parse
    errors: list[tuple[int, str]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def read_trace(path: str | Path, strict: bool = False) -> ReadTrace:
    """Read a trace file; corrupt lines are reported, not fatal, unless strict."""
    header: TraceHeader | None = None
    records: list[TraceRecord] = []
    errors: list[tuple[int, str]] = []
    lines: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line_no == 1:
                try:
                    header = TraceHeader.from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    if strict:
                        raise SimulationError(f"bad trace header: {exc}") from exc
                    errors.append((line_no, f"bad header: {exc}"))
                continue
            try:
                records.append(TraceRecord.from_json_line(line))
                lines.append(line)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if strict:
                    raise SimulationError(f"bad trace record on line {line_no}: {exc}") from exc
                errors.append((line_no, str(exc)))
    return ReadTrace(header=header, records=records, errors=errors, lines=lines)


@dataclass
class RunOutcome:
    result: EpisodeResult
    header: TraceHeader
    records_written: int


def run_built_scenario(
    built: config_mod.BuiltScenario,
    out: TextIO | None = None,
    on_record: Callable[[TraceRecord], None] | None = None,
) -> RunOutcome:
    """Run one episode (plus any end-of-run questionnaires), streaming records."""
    header = make_header(built)
    writer = TraceWriter(out, header) if out is not None else None

    def sink(record: TraceRecord) -> None:
        if writer is not None:
            writer.write_record(record)
        if on_record is not None:
            on_record(record)

    built.gm.on_record = sink
    try:
        result = built.gm.run_episode(built.max_steps)
        if result.reason != "error":
            for questionnaire, at_end in built.questionnaires:
                if not at_end:
                    continue
                for player in built.players:
                    administer_questionnaire(questionnaire, built.gm, player.name)
            result = EpisodeResult(
                trace=list(built.gm.trace),
                reason=result.reason,
                grounded=result.grounded,
                error=result.error,
            )
    finally:
        built.gm.on_record = None
    return RunOutcome(
        result=result,
        header=header,
        records_written=writer.count if writer else len(built.gm.trace),
    )


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
            haystack = "\n".join(
                [
                    record.event,
                    record.action.text if record.action else "",
                    *record.prompts,
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
        lines = [f"[{record.turn}] step {record.step} {record.kind} {record.actor} @ {record.timestamp.strftime('%Y-%m-%dT%H:%M')}"]
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


def replay(path: str | Path) -> ReplayReport:
    """Re-run a recorded scenario feeding back its model calls.

    The verdict is OK only when the regenerated trace matches the recorded
    one byte for byte; the first differing record is reported otherwise.
    """
    recorded = read_trace(path, strict=True)
    header = recorded.header
    assert header is not None
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
    calls: list[ModelCall] = []
    for record in recorded.records:
        calls.extend(record.model_calls)
    model = ReplayModel(calls)
    built = config_mod.build(
        cfg, model=model, seed_override=header.seed, max_steps_override=header.max_steps
    )
    sink_records: list[TraceRecord] = []
    run_built_scenario(built, out=None, on_record=sink_records.append)
    regenerated = [record.to_json_line() for record in sink_records]
    for i, (old, new) in enumerate(zip(recorded.lines, regenerated)):
        if old != new:
            return ReplayReport(
                ok=False,
                records_checked=i,
                divergence_step=recorded.records[i].step,
                detail=f"record {i} differs",
            )
    if len(recorded.lines) != len(regenerated):
        shorter = min(len(recorded.lines), len(regenerated))
        step = recorded.records[shorter - 1].step if recorded.records[:shorter] else 0
        return ReplayReport(
            ok=False,
            records_checked=shorter,
            divergence_step=step,
            detail=(
                f"length mismatch: recorded {len(recorded.lines)} records, "
                f"regenerated {len(regenerated)}"
            ),
        )
    return ReplayReport(ok=True, records_checked=len(regenerated))

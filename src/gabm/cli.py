"""Command line entry points: run, audit, replay, validate-config.

Exit codes: 0 success, 1 validation, read or write error, 2 episode abort,
3 replay divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import config as config_mod
from . import trace as trace_mod
from .errors import ConfigValidationError, SimulationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ABORT = 2
EXIT_DIVERGENCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gabm", description="Run, audit, and replay generative agent simulations."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its trace")
    run.add_argument("--config", required=True, help="scenario config file (JSON)")
    run.add_argument("--script", default=None, help="override the scripted-model rule file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="trace output path (JSONL)")
    run.add_argument("--max-steps", type=int, default=None, help="override the step budget")

    validate = sub.add_parser("validate-config", help="check a scenario config")
    validate.add_argument("--config", required=True)

    audit = sub.add_parser("audit", help="inspect a recorded trace")
    audit.add_argument("--trace", required=True)
    audit.add_argument("--agent", default=None, help="only this agent's turns")
    audit.add_argument("--steps", default=None, help="inclusive step range, e.g. 2:5")
    audit.add_argument("--search", default=None, help="only records containing this text")
    audit.add_argument(
        "--extract-pairs",
        default=None,
        metavar="PATH",
        help="write (states, action) pairs as JSONL instead of a report",
    )

    replay = sub.add_parser("replay", help="re-run a trace and verify byte equality")
    replay.add_argument("--trace", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    # The overrides take the config's own field types.
    for flag, value, ftype in (
        ("--seed", args.seed, config_mod.SEED),
        ("--max-steps", args.max_steps, config_mod.MAX_STEPS),
    ):
        if value is not None and not ftype.accepts(value):
            print(f"{flag} {ftype.must}, got {value}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        cfg = config_mod.load_config(args.config)
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    # Open the trace before building, so an unwritable path costs no model
    # calls; a build that fails removes it again, leaving no headless trace.
    # A write that fails, such as on a full disk, ends the run.
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext() as handle:
            try:
                built = config_mod.build(
                    cfg,
                    script_override=args.script,
                    seed_override=args.seed,
                    max_steps_override=args.max_steps,
                )
            except SimulationError as exc:
                print(f"cannot build scenario: {exc}", file=sys.stderr)
                built = None
            else:
                outcome = trace_mod.run_built_scenario(built, out=handle)
    except OSError as exc:
        print(f"cannot write trace: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if built is None:
        # Only a regular file: --out may name a device such as /dev/null.
        if args.out and os.path.isfile(args.out):
            os.remove(args.out)
        return EXIT_VALIDATION
    print(trace_mod.summarize(outcome))
    if args.out:
        print(f"trace: {args.out} ({outcome.records_written} records)")
    if outcome.result.reason == "error":
        print(f"episode aborted: {outcome.result.error}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = config_mod.load_config(args.config)
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    agents = ", ".join(a["name"] for a in cfg.raw["agents"])
    print(f"ok: seed={cfg.seed} max_steps={cfg.max_steps} agents=[{agents}]")
    return EXIT_OK


def _parse_step_range(text: str) -> tuple[int, int]:
    low, _, high = text.partition(":")
    return int(low or 0), int(high or 10**9)


def _cmd_audit(args: argparse.Namespace) -> int:
    try:
        step_range = _parse_step_range(args.steps) if args.steps else None
    except ValueError:
        print(f"--steps must be A:B with integer bounds, got {args.steps!r}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        read = trace_mod.read_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # Another engine version may write its records in another format, which
    # reads here as corrupt lines.
    if read.header is not None and read.header.engine_version != config_mod.ENGINE_VERSION:
        print(
            f"trace header engine_version {read.header.engine_version!r} is not "
            f"this engine's {config_mod.ENGINE_VERSION!r}",
            file=sys.stderr,
        )
    for line_no, message in read.errors:
        print(f"line {line_no}: corrupt record ({message})", file=sys.stderr)
    records = trace_mod.filter_records(
        read.records, agent=args.agent, step_range=step_range, search=args.search
    )
    if args.extract_pairs:
        try:
            with open(args.extract_pairs, "w", encoding="utf-8") as handle:
                for pair in trace_mod.extract_pairs(records):
                    handle.write(json.dumps(pair, sort_keys=True, ensure_ascii=False) + "\n")
        except OSError as exc:
            print(f"cannot write pairs: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"wrote {len(records)} record(s) worth of pairs to {args.extract_pairs}")
    else:
        print(trace_mod.render_report(records))
        print(f"{len(records)} record(s) shown, {len(read.errors)} corrupt line(s) skipped")
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        report = trace_mod.replay(args.trace)
    except (SimulationError, OSError) as exc:
        print(f"cannot replay: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if report.ok:
        print(f"replay OK ({report.records_checked} records byte-identical)")
        return EXIT_OK
    if report.divergence_step is None:
        print(f"replay failed: {report.detail}", file=sys.stderr)
        return EXIT_VALIDATION
    print(
        f"replay DIVERGED at step {report.divergence_step}: {report.detail}",
        file=sys.stderr,
    )
    return EXIT_DIVERGENCE


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate-config": _cmd_validate,
        "audit": _cmd_audit,
        "replay": _cmd_replay,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

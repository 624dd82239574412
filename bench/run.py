#!/usr/bin/env python3
"""The gabm benchmark: seeded episodes through the public API.

    python3 bench/run.py --workload recall|market|crowd --seed N --seconds S --trace 0|1

One closed loop in one process and one thread: episodes run one after
another, and every turn waits for the previous one.  Each episode validates
and builds its config (``config.config_from_dict`` then ``config.build``),
runs it with ``trace.run_built_scenario`` writing a trace under
``.bench_out/``, and replays that trace with ``trace.replay``.  Episodes
repeat until ``--seconds`` have passed, and at least ``MIN_EPISODES`` run.
Every episode is checked (``check_episode``, replay, same trace bytes as
the first episode, and on ``market`` the same bytes as its 0 ms twin), and
so are the shipped scripted fixtures.

Every time is scaled to a reference host speed measured beside it
(``host.py``), because the shared machine's own speed drifts by more than
the benchmark's bounds.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every other episode runs under the span tracer of
``tracing.py``; the last line carries the per-layer metrics, the memory
scaling probe and the tracing overhead (traced against untraced turns/s),
and the spans go to ``.bench_out/spans-<workload>.jsonl``.

The engine is imported from ``src/`` beside this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import host

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FIXTURES = ("magic_beans", "three_questions", "calendar")
MIN_EPISODES = 3
TAIL_BEYOND = 10
# Each episode builds and replays up to SECTION_REPEATS times, stopping once
# SECTION_MIN_S is spent: a few-ms section timed once, just after the
# model's sleeps, mostly measures how fast the host wakes up.
SECTION_REPEATS = 5
SECTION_MIN_S = 0.25
# Host measurements on each side of a section; one between turns, each
# smoothed with the HOST_WINDOW measurements on either side of it.
HOST_REPEATS = 5
HOST_WINDOW = 5
# A traced run traces every other episode up to this many, which keeps the
# spans of a crowd run to about 200k.
TRACED_EPISODES = 3


def import_engine() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import gabm
    except ImportError as exc:
        print(f"bench: cannot import gabm from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(gabm.__file__).resolve().parent != (SRC / "gabm").resolve():
        print(f"bench: gabm came from {gabm.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


@dataclass
class Episode:
    setup_s: list[float]
    turns: int
    # Wall and CPU seconds of each acting turn, from the callback of the
    # turn before (or the start of the run) to the turn's own callback,
    # scaled to the reference host (see host.py).
    turn_s: list[float]
    turn_cpu_s: list[float]
    # Median host measurement between turns over the reference's time.
    host_slowdown: float
    calls: int
    rounds: int
    prompt_chars: int
    record_bytes: int
    replay_s: list[float]
    sha256: str
    problems: list[str] = field(default_factory=list)


def check_episode(work, built, outcome) -> list[str]:
    """Ending, record count and, on market, conservation of every item."""
    from gabm.grounding import InventoryComponent

    problems = []
    if outcome.result.reason != "max-steps":
        problems.append(f"ended {outcome.result.reason!r}: {outcome.result.error}")
    if outcome.records_written != work.agents * work.steps:
        problems.append(f"{outcome.records_written} records, expected {work.agents * work.steps}")
    for component in built.gm.components:
        if not isinstance(component, InventoryComponent):
            continue
        inventory = component.inventory
        for item in ("coin", "beans"):
            endowed = sum(holdings.get(item, 0) for holdings in work.endowments.values())
            if inventory.total(item) != endowed:
                problems.append(f"{item} total {inventory.total(item)} != endowed {endowed}")
        negative = sorted(p for p, row in inventory.balances.items() if any(q < 0 for q in row.values()))
        if negative:
            problems.append(f"negative balances for {negative}")
    return problems


def repeat_timed(call) -> tuple[object, list[float]]:
    """Call as SECTION_REPEATS and SECTION_MIN_S allow: (last result, scaled durations).

    Collects garbage first, so the cycles an earlier section left behind
    are not collected inside this one.  Each call's duration is scaled to
    the reference host by a ``host.Sampler``.
    """
    gc.collect()
    durations: list[float] = []
    spent = 0.0
    while not durations or (len(durations) < SECTION_REPEATS and spent < SECTION_MIN_S):
        start = perf_counter()
        with host.Sampler(HOST_REPEATS) as sampler:
            result = call()
        spent += perf_counter() - start
        durations.append(sampler.scaled())
    return result, durations


def smoothed(values: list[float]) -> list[float]:
    """Running median over HOST_WINDOW values on each side.

    One host measurement between turns is noisy; the host's speed changes
    over seconds, which is many turns.
    """
    return [
        statistics.median(values[max(0, k - HOST_WINDOW):k + HOST_WINDOW + 1])
        for k in range(len(values))
    ]


def overlap(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the part of [start, end] that the intervals cover."""
    covered = 0.0
    reached = start
    for a, b in sorted(intervals):
        a, b = max(a, reached), min(b, end)
        if b > a:
            covered += b - a
            reached = b
    return covered


def run_episode(work, latency_ms: float, path: Path, tracer=None) -> Episode:
    from gabm import config, trace
    from gabm.model import ScriptedModel

    from latency import LatencyModel, serial_rounds

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    backend = LatencyModel(ScriptedModel(work.fresh_rules()), latency_ms)
    phase("setup")
    built, setup_s = repeat_timed(
        lambda: config.build(config.config_from_dict(work.config, base_dir=OUT), model=backend)
    )

    phase("run")
    # At the start and after each acting turn: (wall, CPU) when the turn
    # ended, the host measurement taken then, and (wall, CPU) when the
    # measurement ended and the next turn began.
    marks: list[tuple[float, float, tuple[float, float], float, float]] = []

    def mark(_=None) -> None:
        wall, cpu = perf_counter(), process_time()
        ref = host.measure()
        marks.append((wall, cpu, ref, perf_counter(), process_time()))

    gc.collect()
    with open(path, "w", encoding="utf-8") as out:
        mark()
        outcome = trace.run_built_scenario(built, out=out, on_record=mark)
    ref_wall = smoothed([ref[0] for _, _, ref, _, _ in marks])
    ref_cpu = smoothed([ref[1] for _, _, ref, _, _ in marks])
    turn_s, turn_cpu_s = [], []
    for k, ((_, _, _, wall0, cpu0), (wall1, cpu1, _, _, _)) in enumerate(zip(marks, marks[1:])):
        wait = overlap(backend.waits, wall0, wall1)
        turn_s.append(wait + (wall1 - wall0 - wait) * host.REF_S * 2 / (ref_wall[k] + ref_wall[k + 1]))
        turn_cpu_s.append((cpu1 - cpu0) * host.REF_S * 2 / (ref_cpu[k] + ref_cpu[k + 1]))
    host_slowdown = statistics.median(ref_wall) / host.REF_S
    problems = check_episode(work, built, outcome)
    turns = outcome.records_written
    del built, outcome

    def replay():
        report = trace.replay(path)
        if not report.ok or report.records_checked != turns:
            problems.append(f"replay failed at step {report.divergence_step}: {report.detail}")

    phase("replay")
    _, replay_s = repeat_timed(replay)
    phase("setup")

    data = path.read_bytes()
    return Episode(
        setup_s=setup_s,
        turns=turns,
        turn_s=turn_s,
        turn_cpu_s=turn_cpu_s,
        host_slowdown=host_slowdown,
        calls=len(backend.calls),
        rounds=serial_rounds(backend.calls),
        prompt_chars=sum(chars for *_, chars in backend.calls),
        record_bytes=len(data) - (data.index(b"\n") + 1),
        replay_s=replay_s,
        sha256=hashlib.sha256(data).hexdigest(),
        problems=problems,
    )


def check_fixtures() -> list[str]:
    """Run and replay each shipped scripted fixture; one problem per failure."""
    from gabm import config, trace

    problems = []
    for name in FIXTURES:
        built = config.build(config.load_config(SRC / "gabm" / "scenarios" / f"{name}.json"))
        path = OUT / f"fixture-{name}.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            outcome = trace.run_built_scenario(built, out=out)
        report = trace.replay(path)
        if outcome.result.reason != "max-steps" or not report.ok:
            problems.append(f"fixture {name}: ended {outcome.result.reason!r}, replay {report.detail or 'OK'}")
    return problems


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND turns beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (1 - TAIL_BEYOND / n)


def turn_profile(episodes: list[Episode], attr: str) -> list[float]:
    """Each turn's median time over the run's episodes, turn by turn.

    Every episode of a run plays the same deterministic turns, so turn i
    does the same work each time; the median over episodes drops the odd
    turn that a host measurement did not track.
    """
    return [statistics.median(times) for times in zip(*(getattr(e, attr) for e in episodes))]


def end_to_end(episodes: list[Episode], engine: list[Episode]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; set-up, CPU and replay come from the engine episodes.

    Every time is scaled to the reference host (see host.py).  Turn times
    come from ``turn_profile``; set-up and replay are medians of all builds
    and all replays of the run.
    """
    turns = sum(e.turns for e in episodes)
    profile = turn_profile(episodes, "turn_s")
    cpu = turn_profile(engine, "turn_cpu_s")
    return {
        "setup_s": (statistics.median(t for e in engine for t in e.setup_s), "s"),
        "turns_per_s": (len(profile) / sum(profile), "1/s"),
        "turn_ms_p50": (1000 * statistics.median(profile), "ms"),
        "turn_ms_tail": (1000 * tail(profile)[0], "ms"),
        "cpu_ms_per_turn": (1000 * sum(cpu) / len(cpu), "ms"),
        "model_calls_per_turn": (sum(e.calls for e in episodes) / turns, "1/turn"),
        "serial_rounds_per_turn": (sum(e.rounds for e in episodes) / turns, "1/turn"),
        "prompt_chars_per_turn": (sum(e.prompt_chars for e in episodes) / turns, "chars/turn"),
        "trace_bytes_per_turn": (sum(e.record_bytes for e in episodes) / turns, "B/turn"),
        "replay_turns_per_s": (engine[0].turns / statistics.median(t for e in engine for t in e.replay_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_engine()
    import tracing
    import workloads

    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}")
    OUT.mkdir(exist_ok=True)
    work = workloads.GENERATORS[args.workload](args.seed)
    print(f"workload {work.name} (seed {args.seed}): {workloads.WHY[work.name]}")
    print(f"  {work.agents} agents x {work.steps} steps per episode, model latency {work.latency_ms} ms/call")

    probe = tracing.memory_probe(args.seed) if args.trace else {}
    tracer = tracing.Tracer() if args.trace else None
    episodes: list[Episode] = []
    traced: list[Episode] = []
    untraced: list[Episode] = []
    # With a model latency, each episode has a twin at 0 ms: the same trace
    # (checked), and the set-up, CPU and replay times of the engine alone,
    # free of the host waking up after every simulated model call.
    twins: list[Episode] = []
    path = OUT / f"{work.name}.jsonl"
    deadline = perf_counter() + args.seconds
    while len(episodes) < MIN_EPISODES or perf_counter() < deadline:
        # In a traced run, odd episodes are traced and even ones give the baseline.
        if tracer is not None and len(episodes) % 2 == 1 and len(traced) < TRACED_EPISODES:
            tracer.install()
            try:
                episode = run_episode(work, work.latency_ms, path, tracer)
            finally:
                tracer.uninstall()
            traced.append(episode)
        else:
            episode = run_episode(work, work.latency_ms, path)
            untraced.append(episode)
        episodes.append(episode)
        if episode.sha256 != episodes[0].sha256:
            episode.problems.append("trace differs from the first episode's")
        if work.latency_ms:
            twin = run_episode(work, 0.0, OUT / f"{work.name}-0ms.jsonl")
            twins.append(twin)
            episode.problems += twin.problems
            if twin.sha256 != episode.sha256:
                episode.problems.append(f"trace at 0 ms latency differs from the one at {work.latency_ms} ms")

    gate = check_fixtures()
    problems = [p for e in episodes for p in e.problems] + gate
    failed = sum(1 for e in episodes if e.problems) + len(gate)
    attempted = len(episodes) + len(FIXTURES)

    turns = sum(e.turns for e in episodes)
    _, percentile = tail(episodes[0].turn_s)
    print(f"{len(episodes)} episodes, {turns} turns; each turn's time is its median over the "
          f"{len(episodes)} episodes; turn_ms_tail is p{percentile:.2f} of those "
          f"{episodes[0].turns} ({TAIL_BEYOND} turns beyond it)")
    slowdowns = [e.host_slowdown for e in episodes]
    print(f"host speed: the reference took {min(slowdowns):.2f}x to {max(slowdowns):.2f}x its "
          f"{host.REF_S * 1000:g} ms between turns (per-episode medians); times are scaled by it")
    print(f"operations: {attempted} attempted, {attempted - failed} succeeded, {failed} failed; "
          f"failed_share {failed / attempted:.4f} share")
    for problem in problems:
        print(f"  FAILED: {problem}")

    if tracer is None:
        metrics = end_to_end(episodes, twins or episodes)
        print_metrics("end-to-end", metrics)
    else:
        traced_turns = sum(e.turns for e in traced)
        metrics = tracing.layer_metrics(tracer, traced_turns)
        metrics.update(probe)
        traced_tps = traced_turns / sum(sum(e.turn_s) for e in traced)
        plain_tps = sum(e.turns for e in untraced) / sum(sum(e.turn_s) for e in untraced)
        metrics["tracing.turns_per_s_traced"] = (traced_tps, "1/s")
        metrics["tracing.turns_per_s_untraced"] = (plain_tps, "1/s")
        metrics["tracing.overhead_pct"] = (100 * (plain_tps / traced_tps - 1), "%")
        spans_path = OUT / f"spans-{work.name}.jsonl"
        count = tracer.write(spans_path)
        print(f"{count} spans written to {spans_path.relative_to(ROOT)}")
        tracing.print_table(tracer)
        print_metrics("per-layer (work per acting turn of the traced episodes)", metrics)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing for the benchmark's traced run, installed from outside.

``Tracer.install`` wraps the public entry points of each gabm module at
runtime; the engine's source is untouched.  Every wrapped call becomes one
span: name, start, end, parent span, the phase the benchmark was in
(setup, run, replay) and the acting turn it served, counted over the run,
which is the request id.  Spans stay in memory until ``write`` dumps them.
``layer_metrics`` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from gabm import agent, config, game_master, grounding, kernel, memory, model, phone, trace

# (owner, attribute, span name); the span name's first part is the layer.
ENTRY_POINTS = (
    (memory.MemoryBank, "add", "memory.add"),
    (memory.MemoryBank, "retrieve_associative", "memory.retrieve_associative"),
    (memory.MemoryBank, "retrieve_recent", "memory.retrieve_recent"),
    (memory.HashEmbedder, "embed", "memory.embed"),
    (model.GenerativeModel, "sample_text", "model.sample_text"),
    (agent.GenerativeAgent, "context_of_action", "agent.context_of_action"),
    (agent.GenerativeAgent, "update_components", "agent.update_components"),
    (agent.GenerativeAgent, "act", "agent.act"),
    (agent.GenerativeAgent, "observe", "agent.observe"),
    (game_master.GameMaster, "pre_act_observe", "game_master.pre_act_observe"),
    (game_master.GameMaster, "update_from_player", "game_master.update_from_player"),
    (game_master.GameMaster, "emit_observation", "game_master.emit_observation"),
    (game_master.GameMaster, "veto", "grounding.veto"),
    (grounding, "parse_trade_from_event", "grounding.parse_trade_from_event"),
    (grounding.InventoryComponent, "settle", "grounding.settle"),
    (phone, "run_phone_scene", "phone.run_phone_scene"),
    (phone, "translate_action", "phone.translate_action"),
    (phone, "deliver_notifications", "phone.deliver_notifications"),
    (trace.TraceWriter, "write_record", "trace.write_record"),
    (kernel.TraceRecord, "to_json_line", "kernel.to_json_line"),
    (trace, "read_trace", "trace.read_trace"),
    (trace, "replay", "trace.replay"),
    (config, "config_from_dict", "config.config_from_dict"),
    (config, "build", "config.build"),
)

# Outside the run phase only these are recorded: the set-up and replay
# totals, not the tens of thousands of memory adds inside a build.
OUTSIDE_RUN = {"config.config_from_dict", "config.build", "trace.read_trace", "trace.replay"}

# Prompts that end like this are a repair re-ask after an unusable answer.
REPAIR_RE = re.compile(
    "(" + "|".join(map(re.escape, (model._CHOICE_REPAIR, agent._FLOAT_REPAIR)))
    + r"|Answer with just the \w+ value\.)$"
)
CALLER_PREFIXES = ("agent", "component", "gm", "grounding", "memory", "phone")


class Tracer:
    """In-memory span recorder plus a few counters read off return values."""

    def __init__(self):
        # (name, start, end, parent index or -1, phase, turn); (name,) while open.
        # The turn counts acting turns over all traced episodes, so it is a
        # request id unique within the run; it is -1 before the first turn.
        self.spans: list[tuple] = []
        self.counters: Counter[str] = Counter()
        self.bank_sizes: list[int] = []
        self.phase = "setup"
        self.turn = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        original_begin = game_master.GameMaster.begin_record
        self._saved.append((game_master.GameMaster, "begin_record", original_begin))

        def begin_record(gm, *args, **kwargs):
            if self.phase == "run":
                self.turn += 1
            return original_begin(gm, *args, **kwargs)

        game_master.GameMaster.begin_record = begin_record

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name: str):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_after_" + name.replace(".", "_"), None)
        always = name in OUTSIDE_RUN

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not always and self.phase != "run":
                return original(*args, **kwargs)
            index = len(spans)
            spans.append((name,))
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.phase, self.turn)
            if observe is not None and self.phase == "run":
                observe(args, kwargs, result, parent)
            return result

        return traced

    # ---- counters read off arguments and results (run phase only) ---------

    def _after_memory_retrieve_associative(self, args, kwargs, result, parent):
        self.bank_sizes.append(len(args[0]))

    def _after_model_sample_text(self, args, kwargs, result, parent):
        prompt = args[1]
        caller = kwargs.get("caller", "")
        self.counters["model.prompt_chars"] += len(prompt)
        self.counters["model.calls." + caller.partition(":")[0]] += 1
        if REPAIR_RE.search(prompt):
            self.counters["model.repair_retries"] += 1

    def _after_grounding_parse_trade_from_event(self, args, kwargs, result, parent):
        self.counters["grounding.extract_warnings"] += len(result[1])

    def _after_grounding_settle(self, args, kwargs, result, parent):
        self.counters["grounding.settled"] += int(result.ok)

    def _after_phone_deliver_notifications(self, args, kwargs, result, parent):
        self.counters["phone.notifications_delivered"] += result

    def _after_kernel_to_json_line(self, args, kwargs, result, parent):
        if parent >= 0 and self.spans[parent][0] == "trace.write_record":
            self.counters["trace.write_record.bytes"] += len(result.encode("utf-8")) + 1

    # ---- output -------------------------------------------------------------

    def write(self, path: Path) -> int:
        """Dump every span as one JSON array per line; returns the count."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent", "phase", "turn"]}) + "\n")
            for index, span in enumerate(self.spans):
                name, start, end, parent, phase, turn = span
                out.write(json.dumps([index, name, round(start, 7), round(end, 7), parent, phase, turn]) + "\n")
        return len(self.spans)

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name over the run phase: count, busy ms and self ms."""
        child_s = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        rows: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent, phase, _) in enumerate(self.spans):
            if phase != "run":
                continue
            row = rows.setdefault(name, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            # No entry point calls itself, so summing durations counts no time twice.
            row["busy_ms"] += (end - start) * 1000
            row["self_ms"] += (end - start - child_s[index]) * 1000
        return rows

    def durations_ms(self, name: str, phase: str) -> list[float]:
        return [(span[2] - span[1]) * 1000 for span in self.spans if span[0] == name and span[4] == phase]


def layer_metrics(tracer: Tracer, turns: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: run-phase work per acting turn, plus medians."""
    rows = tracer.table()
    counters = tracer.counters

    def per_turn(value: float) -> float:
        return value / turns

    def count(name: str) -> float:
        return per_turn(rows.get(name, {}).get("count", 0))

    def busy(name: str) -> float:
        return per_turn(rows.get(name, {}).get("busy_ms", 0.0))

    def self_ms(name: str) -> float:
        return per_turn(rows.get(name, {}).get("self_ms", 0.0))

    def median(name: str, phase: str = "run", scale: float = 1.0) -> float:
        values = tracer.durations_ms(name, phase)
        return statistics.median(values) * scale if values else 0.0

    metrics: dict[str, tuple[float, str]] = {
        "memory.retrieve_associative.count": (count("memory.retrieve_associative"), "1/turn"),
        "memory.retrieve_associative.ms_p50": (median("memory.retrieve_associative"), "ms"),
        "memory.retrieve_associative.busy_ms": (busy("memory.retrieve_associative"), "ms/turn"),
        "memory.retrieve_associative.bank_size_mean": (
            statistics.fmean(tracer.bank_sizes) if tracer.bank_sizes else 0.0,
            "records",
        ),
        "memory.retrieve_recent.busy_ms": (busy("memory.retrieve_recent"), "ms/turn"),
        "memory.add.count": (count("memory.add"), "1/turn"),
        "memory.add.us_p50": (median("memory.add", scale=1000.0), "us"),
        "memory.add.busy_ms": (busy("memory.add"), "ms/turn"),
        "memory.embed.count": (count("memory.embed"), "1/turn"),
        "memory.embed.busy_ms": (busy("memory.embed"), "ms/turn"),
        "model.calls": (count("model.sample_text"), "1/turn"),
        "model.busy_ms": (busy("model.sample_text"), "ms/turn"),
        "model.prompt_chars": (per_turn(counters["model.prompt_chars"]), "chars/turn"),
        "model.repair_retries": (per_turn(counters["model.repair_retries"]), "1/turn"),
    }
    for prefix in CALLER_PREFIXES:
        metrics[f"model.calls.{prefix}"] = (per_turn(counters["model.calls." + prefix]), "1/turn")
    metrics.update(
        {
            "agent.context_of_action.count": (count("agent.context_of_action"), "1/turn"),
            "agent.context_of_action.us_p50": (median("agent.context_of_action", scale=1000.0), "us"),
            "agent.update_components.self_ms": (self_ms("agent.update_components"), "ms/turn"),
            "agent.act.self_ms": (self_ms("agent.act"), "ms/turn"),
            "agent.observe.count": (count("agent.observe"), "1/turn"),
            "agent.observe.busy_ms": (busy("agent.observe"), "ms/turn"),
            "game_master.pre_act_observe.busy_ms": (busy("game_master.pre_act_observe"), "ms/turn"),
            "game_master.update_from_player.self_ms": (self_ms("game_master.update_from_player"), "ms/turn"),
            "game_master.observations": (count("game_master.emit_observation"), "1/turn"),
            "grounding.parse_trade_from_event.count": (count("grounding.parse_trade_from_event"), "1/turn"),
            "grounding.parse_trade_from_event.busy_ms": (busy("grounding.parse_trade_from_event"), "ms/turn"),
            "grounding.vetoes": (count("grounding.veto"), "1/turn"),
            "grounding.settled": (per_turn(counters["grounding.settled"]), "1/turn"),
            "grounding.extract_warnings": (per_turn(counters["grounding.extract_warnings"]), "1/turn"),
            "phone.run_phone_scene.count": (count("phone.run_phone_scene"), "1/turn"),
            "phone.run_phone_scene.busy_ms": (busy("phone.run_phone_scene"), "ms/turn"),
            "phone.translate_action.count": (count("phone.translate_action"), "1/turn"),
            "phone.translate_action.busy_ms": (busy("phone.translate_action"), "ms/turn"),
            "phone.notifications_delivered": (per_turn(counters["phone.notifications_delivered"]), "1/turn"),
            "trace.write_record.busy_ms": (busy("trace.write_record"), "ms/turn"),
            "trace.write_record.bytes": (per_turn(counters["trace.write_record.bytes"]), "B/turn"),
            "kernel.to_json_line.count": (count("kernel.to_json_line"), "1/turn"),
            "kernel.to_json_line.busy_ms": (busy("kernel.to_json_line"), "ms/turn"),
            "trace.read_trace.ms": (median("trace.read_trace", phase="replay"), "ms"),
            "trace.replay.ms": (median("trace.replay", phase="replay"), "ms"),
            "config.config_from_dict.ms": (median("config.config_from_dict", phase="setup"), "ms"),
            "config.build.ms": (median("config.build", phase="setup"), "ms"),
        }
    )
    return metrics


def print_table(tracer: Tracer) -> None:
    """Run-phase totals per span name, grouped by layer."""
    rows = tracer.table()
    print(f"{'span (run phase)':<40} {'count':>9} {'busy_ms':>11} {'self_ms':>11}")
    for name in sorted(rows):
        row = rows[name]
        print(f"{name:<40} {row['count']:>9} {row['busy_ms']:>11.2f} {row['self_ms']:>11.2f}")


PROBE_SIZES = ((1_000, "1k"), (10_000, "10k"))
PROBE_ADDS = 200


def memory_probe(seed: int) -> dict[str, tuple[float, str]]:
    """Add and retrieve_associative timed on one bank as it passes each size."""
    import random
    from datetime import datetime

    from workloads import PLACES, THINGS, VERBS

    rng = random.Random(seed)
    bank = memory.MemoryBank(embedder=memory.HashEmbedder())
    moment = datetime(2024, 5, 1, 8)

    def text() -> str:
        return f"Probe {rng.choice(VERBS)} {rng.choice(THINGS)} at the {rng.choice(PLACES)} on day {len(bank)}."

    metrics = {}
    for size, label in PROBE_SIZES:
        while len(bank) < size - PROBE_ADDS:
            bank.add(text(), moment)
        add_us = []
        for _ in range(PROBE_ADDS):
            item = text()
            start = perf_counter()
            bank.add(item, moment)
            add_us.append((perf_counter() - start) * 1e6)
        retrieve_ms = []
        for place in PLACES + PLACES[:1]:
            start = perf_counter()
            bank.retrieve_associative(f"What happened at the {place}?", 25)
            retrieve_ms.append((perf_counter() - start) * 1000)
        metrics[f"memory.add.us_at_{label}"] = (statistics.median(add_us), "us")
        metrics[f"memory.retrieve_associative.ms_at_{label}"] = (statistics.median(retrieve_ms), "ms")
    return metrics

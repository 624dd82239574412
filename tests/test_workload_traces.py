"""The benchmark's workload traces are pinned, as the fixtures' traces are.

Each workload of ``bench/workloads.py`` is built from its seed and run with
its ``ScriptedModel`` at 0 ms, as an episode of ``bench/run.py`` is (the
benchmark's latency wrapper reports the inner backend, so its traces are
the same bytes).  A change meant to keep traces byte-identical must keep
these pins.  One that changes traces on purpose bumps
``config.ENGINE_VERSION`` and updates these pins and the fixture pins of
tests/test_scenarios.py in the same change.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from gabm.cli import main
from gabm.config import build, config_from_dict
from gabm.model import ScriptedModel
from gabm.trace import run_built_scenario

_SPEC = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
)
# Loaded by path, not from a sys.path entry, so bench/'s other modules
# cannot shadow anything; its dataclasses need it in sys.modules.
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

# sha256 of the trace of each (workload, seed) at engine 0.4.0.
WORKLOAD_TRACE_SHA256 = {
    ("recall", 1): "bf6cfa6522efc7ebc963cc282efbee73558751d62e02730d326b022d4ccf26f3",
    ("recall", 3): "6c3aba2daaa6af123115be79546ca367cb152d491b9c36fa2adde6df78cbb992",
    ("recall", 9): "2c8803b6f8152bb0806a96eb98724afc5d6f7aa9dc6d2f88a72631d984e27a17",
    ("market", 1): "eea63708549108c5f0891888767dae01e61fca7b6b4892c7a86987adaab2a8d3",
    ("market", 3): "b0e6270e000ce24c99959d996a82b91dd8ae945da54c9a71b6dd1c9c192e2c58",
    ("market", 9): "a07f39d229d81f26225c9c1e3f2e492b80647528718cd74d39e81f14c9772ae2",
    ("crowd", 1): "f289ab928e32c90604243d1892b57aee63ffdee07c08207012eb13ed0a6f7db1",
    ("crowd", 3): "13bcb4abf798658185368afbbbfa155e33b9cf24157f092400613d8f0fb15db4",
    ("crowd", 9): "af1acb231a1b5fd7894ca1d10f3872a32471788bf549a29abb0fa2e112f69c67",
}


# sha256 of what `gabm audit` printed for the crowd trace at seed 1 at
# engine 0.2.0, which wrote each observation once per recipient: the whole
# report (5,820 observation lines), the report of its first agent, and the
# --extract-pairs file.  The fixtures deliver no observation to two agents
# at once, so only this trace shows that grouping keeps what audit shows.
CROWD_AUDIT_SHA256 = {
    "report": "248d44761058dbe6961bcbeb735202862ce49a32662f4d90b9cfe5c5a1b0b424",
    "first agent": "9f22f44f885ca0a41cb9a5a89be42d34044ebe486c4f1a395d781e304a8f4c8e",
    "pairs": "748b06031c2e840bf84afa1ff4c438c51b939a88e83f08424b38bce375a2dbfe",
}


def run_workload(workload: str, seed: int, base_dir: Path):
    """The (workload, seed)'s work, and its trace as run_built_scenario writes it."""
    work = workloads.GENERATORS[workload](seed)
    config = config_from_dict(work.config, base_dir=base_dir)
    built = build(config, model=ScriptedModel(work.fresh_rules()))
    out = io.StringIO()
    outcome = run_built_scenario(built, out=out)
    assert outcome.result.reason == "max-steps"
    return work, out.getvalue()


@pytest.mark.parametrize(
    "workload, seed", WORKLOAD_TRACE_SHA256, ids=[f"{w}-{s}" for w, s in WORKLOAD_TRACE_SHA256]
)
def test_workload_traces_are_pinned(tmp_path, workload, seed):
    _, text = run_workload(workload, seed, tmp_path)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == WORKLOAD_TRACE_SHA256[workload, seed]


def test_crowd_audit_views_are_those_engine_0_2_0_printed(tmp_path, capsys):
    work, text = run_workload("crowd", 1, tmp_path)
    trace = tmp_path / "crowd.jsonl"
    trace.write_text(text, encoding="utf-8")
    first = work.config["agents"][0]["name"]
    pairs = tmp_path / "pairs.jsonl"
    shown = {}
    for view, flags in (
        ("report", []),
        ("first agent", ["--agent", first]),
        ("pairs", ["--extract-pairs", str(pairs)]),
    ):
        assert main(["audit", "--trace", str(trace), *flags]) == 0
        shown[view] = capsys.readouterr().out
    shown["pairs"] = pairs.read_text(encoding="utf-8")
    digests = {view: hashlib.sha256(out.encode("utf-8")).hexdigest() for view, out in shown.items()}
    assert digests == CROWD_AUDIT_SHA256

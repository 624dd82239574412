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

# sha256 of the trace of each (workload, seed) at engine 0.3.0.
WORKLOAD_TRACE_SHA256 = {
    ("recall", 1): "9010cb698e94b850e6a77706c7560e278cffc616473f317937be27642479a03d",
    ("recall", 3): "ca063fd7f009e6b2aa4cf817a337b548e622fce308c051a0d355c51a95111be0",
    ("recall", 9): "fbb002c1a9d9495938db558f629b6afab991e8cadea78e3c9baa0c9b8b4a1e92",
    ("market", 1): "623970d6a878d8b85e81b6414881cec180851002fed92f9756af12fd592e651f",
    ("market", 3): "c42ec5d4066d483bf8ff1e86fefcd5df579478076ace38a91f66d8b22c37de61",
    ("market", 9): "151b1a121f8bf3049d6cfd91827ab6821b0bab542a5a5b00a83ecc044877d4af",
    ("crowd", 1): "93c350afcc5a55c752ade25f9da0cb94c899e210a56b053951d5e891bec8e205",
    ("crowd", 3): "ee988764b275c0d53e7666f1c5e1a008fd0122cf5b8f04b9fbba40e4b75b895b",
    ("crowd", 9): "aee0ffa0328866ee86d420e11954c704d8c9c94f7f7625bba16159b7666b0d0a",
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

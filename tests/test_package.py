from __future__ import annotations

import ast
import importlib.util
import inspect
import textwrap
from collections import Counter
from datetime import datetime
from pathlib import Path

import pytest

import gabm
from gabm.agent import AgentComponent, GenerativeAgent
from gabm.errors import InvalidModelOutput, NoMatchingOption
from gabm.game_master import GMComponent
from gabm.kernel import ActionSpec, OutputKind
from gabm.model import ScriptedModel, ScriptRule
from gabm.phone import CalendarApp, PhoneUniverse, translate_action

T0 = datetime(2024, 5, 1, 9, 0)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gabm"


def test_every_exported_name_exists_once():
    # A stale entry breaks only ``from gabm import *``, which nothing else runs.
    missing = [name for name in gabm.__all__ if not hasattr(gabm, name)]
    assert missing == []
    assert len(set(gabm.__all__)) == len(gabm.__all__)


def test_every_public_definition_is_used_outside_tests():
    # A public class, function or method that only tests reach looks like a
    # feature and gives none.  A use is a name, an attribute or a string
    # equal to it (the benchmark tracer wraps entry points by name) anywhere
    # in the package or the benchmark, except the package's re-exports.  An
    # app's ``do_<action>`` handler is used when ``<action>`` is one of the
    # app's declared actions: ``PhoneApp.invoke`` dispatches to it by name.
    used: Counter[str] = Counter()
    for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        if path == SRC / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used[node.value] += 1

    def dispatched(module, cls: ast.ClassDef, method: str) -> bool:
        actions = getattr(getattr(module, cls.name), "actions", ())
        return any(method == f"do_{action.name}" for action in actions)

    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"gabm.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)) or node.name.startswith("_"):
                continue
            if not used[node.name]:
                unused.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{path.stem}.{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                    and not used[method.name]
                    and not dispatched(module, node, method.name)
                ]
    assert unused == []


def _does_nothing(method) -> bool:
    """True if the method's body, past its docstring, is empty, ``pass``, or
    returns None, "" or False."""
    body = ast.parse(textwrap.dedent(inspect.getsource(method))).body[0].body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    (statement,) = body
    if isinstance(statement, ast.Pass):
        return True
    if not isinstance(statement, ast.Return):
        return False
    value = statement.value
    return value is None or (
        isinstance(value, ast.Constant) and (value.value is None or value.value == "" or value.value is False)
    )


def test_every_hook_that_does_nothing_has_an_override_in_the_package():
    # A component hook whose base body does nothing, and that no component
    # of the package overrides, is called every turn and gives nothing.
    for path in SRC.glob("*.py"):
        importlib.import_module(f"gabm.{path.stem}")

    def package_subclasses(cls):
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("gabm."):
                yield sub
            yield from package_subclasses(sub)

    unused = []
    for base in (GMComponent, AgentComponent):
        hooks = [
            name
            for name, method in vars(base).items()
            if inspect.isfunction(method) and not name.startswith("_") and _does_nothing(method)
        ]
        assert hooks, base.__name__
        unused += [
            f"{base.__name__}.{name}"
            for name in hooks
            if not any(name in vars(sub) for sub in package_subclasses(base))
        ]
    assert unused == []


def _bench_tracing():
    # The benchmark's span tracer, read from the checkout; nothing is installed.
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_entry_points_resolve_to_callables():
    # The tracer wraps these by name; a renamed entry point would break only
    # the traced benchmark run.
    tracing = _bench_tracing()
    missing = [
        name
        for owner, attr, name in tracing.ENTRY_POINTS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_bench_repair_pattern_matches_every_re_ask(calls):
    repair_re = _bench_tracing().REPAIR_RE
    model = ScriptedModel(
        rules=[ScriptRule(contains="Which app action", response="calendar.add_meeting")],
        default_response="whenever works",  # no option, no number, no datetime
    )
    with pytest.raises(NoMatchingOption):
        model.sample_choice("Pick one.", ["left", "right"], caller="choice")
    agent = GenerativeAgent("Ada", model)
    with pytest.raises(InvalidModelOutput):
        agent.act(ActionSpec("Pick a number, {name}.", OutputKind.FLOAT), T0)
    universe = PhoneUniverse(phones={"Ada": [CalendarApp()]})
    assert translate_action(universe, "Ada", "plan lunch", model, now=T0) is None
    asks: dict[str, list[str]] = {}
    for call in calls:
        asks.setdefault(call.caller, []).append(call.prompt)
    for caller in ("choice", "agent:Ada:act", "phone:translate:param:when"):
        first, *re_asks = asks[caller]
        assert re_asks, caller
        assert not repair_re.search(first), caller
        assert all(repair_re.search(prompt) for prompt in re_asks), caller

"""``errors.blamed_on``, the one rule that names an input in its faults, and a guard that no
module re-raises an input's fault by hand."""

import ast
from pathlib import Path

import pytest

import advrelight
from advrelight.errors import (AdvRelightError, ManifestError, NonUnitNormalError, ScenarioError,
                              blamed_on)

#: The error types an input's fault is re-raised as, naming the input.
_NAMING_ERRORS = {"ValueError", "ManifestError", "ScenarioError"}

#: Handlers that may still word a caught fault themselves: ``pngio.read_png`` puts zlib's
#: detail inside its own message, which names the path, and drops the cause.
_EXEMPT = {("pngio.py", "read_png")}


@pytest.mark.parametrize("kinds, error, raised, message", [
    ((), ValueError, ValueError("bad"), "in.png: bad"),
    ((), ValueError, NonUnitNormalError("off"), "in.png: off"),
    ((KeyError, TypeError), ManifestError, TypeError("t"), "in.png: t"),
    ((KeyError, TypeError), ManifestError, KeyError("k"), "in.png: missing key 'k'"),
    ((OverflowError, ValueError), ScenarioError, OverflowError("big"), "in.png: big"),
], ids=["default_kind", "default_kind_subclass", "listed_kind", "missing_key", "scenario"])
def test_blamed_on_names_the_input_in_a_listed_fault(kinds, error, raised, message):
    with pytest.raises(error) as info, blamed_on("in.png", *kinds, error=error):
        raise raised
    assert type(info.value) is error and str(info.value) == message
    assert info.value.__cause__ is raised


@pytest.mark.parametrize("kinds, raised", [
    ((), OSError("gone")),
    ((), KeyError("k")),
    ((KeyError, TypeError), ValueError("v")),
], ids=["os_error", "key_error_by_default", "unlisted_value_error"])
def test_blamed_on_passes_an_unlisted_fault_through(kinds, raised):
    with pytest.raises(type(raised)) as info, blamed_on("in.png", *kinds):
        raise raised
    assert info.value is raised and info.value.__cause__ is None


def test_blamed_on_passes_a_kept_fault_through():
    raised = ManifestError("m")
    with pytest.raises(ManifestError) as info, blamed_on("in.png", keep=AdvRelightError):
        raise raised
    assert info.value is raised and info.value.__cause__ is None
    with pytest.raises(ValueError, match="^in.png: v$"), blamed_on("in.png",
                                                                   keep=AdvRelightError):
        raise ValueError("v")


def test_blamed_on_returns_what_its_block_returns():
    def read():
        with blamed_on("in.png"):
            return 3
    assert read() == 3


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _hand_rolled_attributions(path: Path):
    """``file:line`` of every ``except ... as name`` handler in ``path`` that raises one of
    ``_NAMING_ERRORS`` from an f-string formatting ``name``, or a variable the handler
    assigned from it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {}  # handler -> the innermost function holding it
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                owner[node] = function.name
    for handler in ast.walk(tree):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name):
            continue
        if (path.name, owner.get(handler)) in _EXEMPT:
            continue
        caught = {handler.name}
        for node in ast.walk(handler):  # e.g. ``detail = f"missing key {exc}" ...``
            if isinstance(node, ast.Assign) and _names(node.value) & caught:
                caught |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(handler):
            call = node.exc if isinstance(node, ast.Raise) else None
            if getattr(getattr(call, "func", None), "id", None) not in _NAMING_ERRORS:
                continue
            formatted = [value for arg in call.args if isinstance(arg, ast.JoinedStr)
                         for value in ast.walk(arg) if isinstance(value, ast.FormattedValue)]
            if any(_names(value) & caught for value in formatted):
                yield f"{path.name}:{node.lineno}"


def test_no_module_rewords_an_input_fault_by_hand():
    """Every fault re-raised with its input's name goes through ``errors.blamed_on``."""
    package = Path(advrelight.__file__).parent
    found = [site for path in sorted(package.glob("*.py")) if path.name != "errors.py"
             for site in _hand_rolled_attributions(path)]
    assert found == []

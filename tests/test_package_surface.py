"""The benchmark reaches the library through the package's top level and a
fixed list of entry points; a cleanup of either must not break it."""

import ast
import importlib
import re
from pathlib import Path

import permdec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_workloads_call_is_exported():
    text = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bpd\.(\w+)", text))
    assert names, "no pd.<name> found in workloads.py"
    missing = sorted(n for n in names if not hasattr(permdec, n))
    assert missing == []


def _required_entry_points() -> tuple:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "REQUIRED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py has no REQUIRED")


def test_every_entry_point_the_tracer_wraps_resolves():
    required = _required_entry_points()
    assert required
    missing = []
    for mod, dotted in required:
        obj = importlib.import_module(f"permdec.{mod}")
        try:
            for part in dotted.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(f"{mod}.{dotted}")
    assert missing == []

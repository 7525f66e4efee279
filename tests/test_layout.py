"""Every definition and every module-level constant in src/spinamp has a
reader in src/spinamp, the banded product lives in dicke alone, and the
harness has one compute path per kind of stage.

Code that only the tests read lives in tests/helpers.py, so a function,
class or method that nothing in the package names beyond its own
definition, or an ALL-CAPS constant that no code there loads, is dead weight
in the package.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinamp"
FILES = sorted(SRC.rglob("*.py"))


def _definitions():
    """(module, qualified name, name) of each module-level function and class
    and each non-dunder method."""
    for path in FILES:
        module = path.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield module, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                        yield module, f"{node.name}.{item.name}", item.name


def test_every_definition_has_a_caller_in_src():
    text = "\n".join(path.read_text(encoding="utf-8") for path in FILES)
    definitions = list(_definitions())
    assert len(definitions) > 50  # the walk found the package
    unused = [
        f"{module}: {qualified}"
        for module, qualified, name in definitions
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    ]
    assert not unused, f"defined in src/spinamp but named nowhere else there: {unused}"


def _constants():
    """(module, name) of each module-level ALL-CAPS name assigned, with or
    without a leading underscore."""
    for path in FILES:
        module = path.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                    yield module, target.id


def test_every_constant_is_read_in_src():
    """A constant is read where code loads its name or an attribute of that
    name; an assignment, an import or a mention in a docstring or comment is
    no read."""
    reads = set()
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    constants = list(_constants())
    assert len(constants) > 30  # the walk found the package's constants
    unread = [f"{module}: {name}" for module, name in constants if name not in reads]
    assert not unread, f"assigned in src/spinamp but read nowhere there: {unread}"


def test_slice_updates_live_in_dicke():
    """An augmented assignment to a slice, such as out[: m - 1] += u * x[1:],
    is the work of a banded product; dicke.add_band_products is the one
    product the package has, so no other module makes one. Updates by index
    or by an index array are not slices."""
    found = []
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            target = node.target if isinstance(node, ast.AugAssign) else None
            if isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Slice):
                found.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    assert found  # the walk found add_band_products
    assert all(place.startswith("dicke.py:") for place in found), found


def test_runners_share_one_compute_path():
    """experiments calls evolve, quantum_gain, field_sweep and DriveSchedule
    at one place each, in _driven and _sweep, which every runner that needs a
    trajectory, its gain or a field sweep reads; a runner that calls one
    itself would compute apart from the plan."""
    tree = ast.parse((SRC / "harness" / "experiments.py").read_text(encoding="utf-8"))
    called = [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert {name: called.count(name) for name in ("evolve", "quantum_gain", "field_sweep", "DriveSchedule")} == {
        "evolve": 1,
        "quantum_gain": 1,
        "field_sweep": 1,
        "DriveSchedule": 1,
    }

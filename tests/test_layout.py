"""Every definition in src/spinamp has a caller in src/spinamp.

Code that only the tests read lives in tests/helpers.py, so a function,
class or method that nothing in the package names beyond its own
definition is dead weight in the package.
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

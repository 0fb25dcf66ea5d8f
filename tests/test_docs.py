"""The quickstarts in README.md and the package docstrings stay current.

Running them would take minutes, so each code block is checked for the
two ways a quickstart goes stale: an import that no longer resolves,
and a keyword that a :class:`Campaign` method no longer takes.
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from repro.scenario import Campaign

ROOT = Path(__file__).resolve().parent.parent
CAMPAIGN_METHODS = ("run", "run_pairs", "run_defended")
IMPORT = re.compile(
    r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|.*)|import repro[\w.]*)",
    re.M)


def readme_blocks():
    """Every ```` ```python ```` block of README.md, named by its ordinal
    so that an edit above a block does not rename its test."""
    text = (ROOT / "README.md").read_text()
    matches = re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M)
    for ordinal, match in enumerate(matches, 1):
        yield f"README.md#{ordinal}", match.group(1)


def docstring_blocks():
    """Every ``::`` literal block of a ``src/repro/**/__init__.py``
    docstring, named by its ordinal in the file."""
    for path in sorted((ROOT / "src" / "repro").rglob("__init__.py")):
        module = ast.parse(path.read_text())
        lines = (ast.get_docstring(module, clean=False) or "").splitlines()
        where = path.relative_to(ROOT / "src")
        index = ordinal = 0
        while index < len(lines):
            line = lines[index]
            index += 1
            if not line.rstrip().endswith("::"):
                continue
            indent = len(line) - len(line.lstrip())
            start = index
            while index < len(lines) and (
                    not lines[index].strip()
                    or len(lines[index]) - len(lines[index].lstrip()) > indent):
                index += 1
            ordinal += 1
            yield (f"{where}#{ordinal}",
                   textwrap.dedent("\n".join(lines[start:index])))


def campaign_keywords(tree: ast.AST):
    """``(method, keyword)`` for each keyword passed to a Campaign method.

    A receiver is a ``Campaign(...)`` call or a name bound to one.
    """
    def constructs(node) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Campaign")

    bound = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and constructs(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CAMPAIGN_METHODS):
            continue
        receiver = node.func.value
        if constructs(receiver) or (isinstance(receiver, ast.Name)
                                    and receiver.id in bound):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield node.func.attr, keyword.arg


BLOCKS = [(where, code)
          for where, code in [*readme_blocks(), *docstring_blocks()]
          if IMPORT.search(code) or "Campaign" in code]


def test_blocks_are_found():
    files = {where.rsplit("#", 1)[0] for where, _ in BLOCKS}
    assert {"README.md", "repro/__init__.py", "repro/atlas/__init__.py",
            "repro/obs/__init__.py", "repro/scenario/__init__.py"} <= files


@pytest.mark.parametrize("where, code", BLOCKS,
                         ids=[where for where, _ in BLOCKS])
def test_quickstart_is_current(where, code):
    for statement in IMPORT.findall(code):
        exec(statement, {})
    try:
        tree = ast.parse(code)
    except SyntaxError:
        # A shell block; only a Python block may import from repro.
        assert not any(line.lstrip().startswith(("from repro", "import repro"))
                       for line in code.splitlines()), where
        return
    for method, keyword in campaign_keywords(tree):
        parameters = inspect.signature(getattr(Campaign, method)).parameters
        assert keyword in parameters, \
            f"{where}: Campaign.{method}() takes no {keyword!r}"

"""Every Python file parses as Python 3.10, the oldest version CI runs.

``ast.parse`` with ``feature_version`` rejects newer syntax (``except*``,
PEP 695 type parameters, ...) on any newer interpreter, so the floor is
checked without a 3.10 install. It does not catch newer library calls.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "demos", "shelfbench")
SOURCES = sorted(path for folder in FOLDERS for path in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

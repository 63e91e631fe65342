import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blowup"


def _imported_top_levels(path: Path) -> set[str]:
    """Top-level names of every absolute import in one module, including the
    ones inside functions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in project["dependencies"]}
    third_party = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _imported_top_levels(path):
            if name not in sys.stdlib_module_names and name != "blowup":
                third_party.setdefault(name, []).append(path.name)
    assert "numpy" in third_party       # the walk does see imports
    undeclared = {k: v for k, v in third_party.items() if k.lower() not in declared}
    assert undeclared == {}

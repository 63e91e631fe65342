import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blowup"
MODULES = sorted(PACKAGE.glob("*.py"))


def _bound_names(body) -> set[str]:
    """Names a module body binds at module level, including inside
    top-level if / try blocks."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            names |= _bound_names(node.body) | _bound_names(node.orelse)
        elif isinstance(node, ast.Try):
            names |= _bound_names(node.body) | _bound_names(node.orelse)
            names |= _bound_names(node.finalbody)
            for handler in node.handlers:
                names |= _bound_names(handler.body)
    return names


def _surface(path: Path) -> tuple[set[str], list[str] | None]:
    """(module-level names, the literal __all__ or None) of one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = None
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = ast.literal_eval(node.value)
    return _bound_names(tree.body), exported


def test_every_exported_name_is_bound_in_its_module():
    seen = 0
    for path in MODULES:
        bound, exported = _surface(path)
        missing = [name for name in exported or [] if name not in bound]
        assert missing == [], f"{path.name} exports unbound names {missing}"
        seen += len(exported or [])
    assert seen > 0   # the walk does see the __all__ lists


def test_no_name_is_exported_by_two_modules():
    owner = {}
    for path in MODULES:
        for name in _surface(path)[1] or []:
            assert name not in owner, f"{name} is exported by {owner[name]} and {path.name}"
            owner[name] = path.name


def test_package_root_exports_only_the_version():
    bound, exported = _surface(PACKAGE / "__init__.py")
    assert bound == {"__version__"}
    assert exported in (None, ["__version__"])

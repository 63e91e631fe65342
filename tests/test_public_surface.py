import ast
import importlib
import importlib.util
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


def _tracing():
    """perfbench/tracing.py, loaded from its file as the benchmark loads it."""
    path = PACKAGE.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_binds_resolves():
    # the benchmark's per-layer metrics wrap these functions by name
    tracing = _tracing()
    for mod, name in tracing.SPANNED + [tracing.DRIVE]:
        assert callable(getattr(importlib.import_module("blowup." + mod), name, None)), \
            f"blowup.{mod}.{name}"


def test_traced_spectrum_prints_the_untraced_csv(capsys):
    # the tracer wraps every rhs, so its shots call the chart equation per
    # stage where untraced ones compute it inside the stages: the same digits
    from blowup import cli
    assert cli.main(["spectrum", "--n-max", "3"]) == 0
    untraced = capsys.readouterr().out
    tracer = _tracing().Tracer(1e-12)
    with tracer.installed():
        assert cli.main(["spectrum", "--n-max", "3"]) == 0
    assert capsys.readouterr().out == untraced
    assert tracer.counts["integrate.rhs_calls"] > 0


# exported names no package code reaches, each with the reason it stays
UNREACHED_BY_DESIGN = {
    "u_singular": "the closed-form singular solution, the oracle the README names",
}


def _referenced_names(path: Path) -> set[str]:
    """Names one module's code refers to: loads, attributes and imports, not
    strings, so a docstring or an __all__ entry does not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_exported_name_is_reached_by_the_package_or_the_tracer():
    # a public name only tests call is code no command runs
    reached = set().union(*map(_referenced_names, MODULES))
    tracing = _tracing()
    reached |= {name for _, name in tracing.SPANNED + [tracing.DRIVE]}
    unreached = [f"{path.stem}.{name}" for path in MODULES
                 for name in _surface(path)[1] or []
                 if name not in reached and name not in UNREACHED_BY_DESIGN]
    assert unreached == [], f"exported but reached by no package code: {unreached}"


def test_traced_request_counts_its_integrations(capsys):
    from blowup import cli

    tracer = _tracing().Tracer(1e-12)
    with tracer.installed():
        assert cli.main(["solve", "--n", "1"]) == 0
    assert capsys.readouterr().out.startswith("n,c_n,b_n")
    counts, _, _ = tracer.summary()
    assert counts["integrate.calls"] > 0
    assert counts["integrate.steps"] > 0 and counts["integrate.rhs_calls"] > 0

"""Every public top-level function and class of the package has a caller,
every name a module imports is read, and every module-level constant is
read.

A name counts as used when runtime code outside its own definition, a
`bench/` file or README.md names it. Tests do not count: an export that
only its unit tests call is dead weight on the public surface.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wigcorr"

# Kept without a runtime caller, each for a stated reason.
ALLOWED = {
    # The per-sample reference that the chunked Monte Carlo draw is
    # tested against, bit for bit.
    "sample_rng": "per-sample reference of the chunk path",
    "sample_matrix": "per-sample reference of the chunk path",
}


def _public_defs(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def _names_in(node: ast.AST):
    """Every identifier a node refers to: bare names, attribute names and
    imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            for alias in sub.names:
                yield alias.name


def unused_exports(package: Path = PACKAGE, bench: Path = ROOT / "bench",
                   readme: Path = ROOT / "README.md"):
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py"))}
    # (file, owning top-level definition or None, names used) for every
    # top-level statement, so that a definition does not call itself. The
    # package __init__ only re-exports, which is not a use.
    uses = [
        (path, getattr(node, "name", None), set(_names_in(node)))
        for path, tree in trees.items() if path != package / "__init__.py"
        for node in tree.body
    ]
    readme_text = readme.read_text()
    unused = []
    for path in sorted(package.glob("*.py")):
        for node in _public_defs(trees[path]):
            name = node.name
            if name in ALLOWED or re.search(rf"\b{name}\b", readme_text):
                continue
            if not any(name in names for where, owner, names in uses
                       if where != path or owner != name):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_definition_has_a_caller():
    assert unused_exports() == []


def test_allowlist_names_existing_definitions():
    defined = {node.name
               for path in PACKAGE.glob("*.py")
               for node in _public_defs(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined


def unused_imports(package: Path = PACKAGE):
    """`module.name` for each name a module imports and never reads. The
    package __init__ imports only to re-export, so it is exempt."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in read]
    return unused


def test_every_import_is_read():
    assert unused_imports() == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(package: Path = PACKAGE, bench: Path = ROOT / "bench",
                     readme: Path = ROOT / "README.md"):
    """`module.NAME` for each upper-case name a package module assigns at
    top level and no package or `bench/` file reads (a load of the bare
    name or an attribute of that name) and README.md does not name. A
    leftover of deleted code shows up here."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    readme_text = readme.read_text()
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in trees[path].body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                name = getattr(target, "id", "")
                if (CONSTANT.fullmatch(name) and name not in read
                        and not re.search(rf"\b{name}\b", readme_text)):
                    unread.append(f"{path.stem}.{name}")
    return unread


def test_every_constant_is_read():
    assert unread_constants() == []


def test_an_unread_constant_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "USED = 1\n_LEFTOVER = 64\nlower = 2\n\n\ndef f():\n    return USED\n")
    readme = tmp_path / "README.md"
    readme.write_text("")
    assert unread_constants(package, tmp_path / "no-bench", readme) == ["mod._LEFTOVER"]

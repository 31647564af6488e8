"""Every top-level function and class of the package has a caller,
every name a module imports is read, every module-level constant is
read, and every name the package exports at its top level is documented.

A name counts as used when runtime code outside its own definition or a
`bench/` file names it, or, for a public name, README.md. Tests do not
count: an export that only its unit tests call is dead weight on the
public surface, and a private helper only tests call is dead code.
"""

import ast
import re
from pathlib import Path

import wigcorr

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wigcorr"

# Kept without a runtime caller, each for a stated reason.
ALLOWED = {
    # The per-sample reference that the block-at-a-time Monte Carlo draw
    # is tested against, bit for bit.
    "sample_matrix": "per-sample reference of the block path",
}


def _top_defs(tree: ast.Module, private: bool = False):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") == private):
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


def uncalled_defs(package: Path, bench: Path, private: bool, readme_text: str = ""):
    """`module.name` for each top-level public (or private) definition of
    the package that no other top-level statement of the package or of
    `bench/` names, that ALLOWED does not keep and `readme_text` does not
    name."""
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
    unused = []
    for path in sorted(package.glob("*.py")):
        for node in _top_defs(trees[path], private):
            name = node.name
            if name in ALLOWED or re.search(rf"\b{name}\b", readme_text):
                continue
            if not any(name in names for where, owner, names in uses
                       if where != path or owner != name):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_definition_has_a_caller():
    readme_text = (ROOT / "README.md").read_text()
    assert uncalled_defs(PACKAGE, ROOT / "bench", False, readme_text) == []


def test_every_private_definition_has_a_caller():
    assert uncalled_defs(PACKAGE, ROOT / "bench", private=True) == []


def test_an_uncalled_private_definition_is_caught(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n\n\n"
        "class _Orphan:\n    pass\n\n\n"
        "def public():\n    return _used()\n")
    got = uncalled_defs(package, tmp_path / "no-bench", private=True)
    assert got == ["mod._recursive", "mod._Orphan"]


def test_allowlist_names_existing_definitions():
    defined = {node.name
               for path in PACKAGE.glob("*.py")
               for node in _top_defs(ast.parse(path.read_text()))}
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


def undocumented_exports(readme: Path = ROOT / "README.md"):
    """Each name in `wigcorr.__all__` that README.md does not name. The
    package __init__ only re-exports, so the README is the caller of the
    top-level surface."""
    readme_text = readme.read_text()
    return [name for name in wigcorr.__all__
            if not re.search(rf"\b{re.escape(name)}\b", readme_text)]


def test_every_top_level_export_is_named_in_the_readme():
    assert undocumented_exports() == []


def test_an_undocumented_export_is_caught(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("`scaled_add` and `DomainError`, but not the rest.\n")
    missing = undocumented_exports(readme)
    assert "scaled_add" not in missing and "DomainError" not in missing
    assert "scaled_mul" in missing and "__version__" in missing

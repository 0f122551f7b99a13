"""The package exports only what its own code reaches or the README documents.

Every name in ``magiclab.__all__`` must be loaded somewhere in
``src/magiclab`` outside ``__init__.py`` (type annotations do not count),
or be listed in the README's Library section: in its "Public API"
paragraph, or for a module in its "Modules:" paragraph.  A name that
neither the CLI path nor a reader of the README needs belongs in the
tests, as the referees of ``tests/referees.py`` do.
"""

import ast
import re
from pathlib import Path

import magiclab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "magiclab"


def _annotation_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def names_used_in_package() -> set[str]:
    """Names and attributes loaded by the package's modules, ``__init__`` aside."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        skip = {
            id(inner)
            for note in _annotation_nodes(tree) if note is not None
            for inner in ast.walk(note)
        }
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def readme_lists() -> dict[str, set[str]]:
    """The backticked names of each Library paragraph, keyed by its first word."""
    text = (ROOT / "README.md").read_text()
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return {
        paragraph.split()[0]: set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))
        for paragraph in library.split("\n\n")
        if paragraph.strip()
    }


def test_every_export_is_reached_or_documented():
    lists = readme_lists()
    documented = lists["Public"] | lists["Modules:"]
    used = names_used_in_package()
    stray = sorted(name for name in magiclab.__all__ if name not in used | documented)
    assert stray == [], f"exported, never reached from src and not in the README: {stray}"


def test_readme_public_api_names_exist():
    public = readme_lists()["Public"]
    assert public
    assert sorted(public - set(magiclab.__all__)) == []


def test_the_guard_tells_reached_names_from_test_only_ones():
    used = names_used_in_package()
    assert {"verify_s_magic", "kotzig_array", "split_equal_sums"} <= used
    assert not {"weight", "equal_sum_partition", "gap_lower_bound"} & used

"""Every module-level import of the package is read in its own module, no line is longer
than 100 characters, only ``errors.py`` reaches the network or sleeps, and only
``corpus.py`` sets a block size."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "labelforge"


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unread_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\nimport os.path\nimport sys as s\n"
              "from json import dumps, loads\n\ndef f() -> s.X:\n    return loads(os.path.sep)\n")
    assert unread_imports(source) == ["dumps"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_import(module):
    assert unread_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_lines_fit_in_100_characters(module):
    lines = (PACKAGE / module).read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, 1) if len(line) > 100] == []


def test_only_errors_calls_remote_services_or_sleeps():
    """Remote clients share ``errors.post_json`` and ``errors.with_retries``: no other
    module grows its own transport or backoff."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    callers = [p.name for p in sources if p.name != "errors.py"
               and any(word in p.read_text(encoding="utf-8") for word in ("urllib", "sleep"))]
    assert callers == []


def assigned_names(source: str) -> list[str]:
    """Names bound by the module's top-level assignments, plain, annotated or augmented."""
    targets = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_only_corpus_sets_a_block_size():
    """``ROW_BLOCK`` is assigned once, in ``corpus.py``, and no module assigns another
    ``*BLOCK`` or ``*BLOCK_TOKENS`` name, so every walk over a split's rows goes through
    ``corpus.row_blocks``."""
    assert assigned_names("A_BLOCK, (b, C) = 1, (2, 3)\nD: int = 4\nE += 5\n") == [
        "A_BLOCK", "b", "C", "D", "E"]
    assigned = {p.name: assigned_names(p.read_text(encoding="utf-8"))
                for p in sorted(PACKAGE.glob("*.py"))}
    assert [(module, names.count("ROW_BLOCK")) for module, names in assigned.items()
            if "ROW_BLOCK" in names] == [("corpus.py", 1)]
    assert [(module, name) for module, names in assigned.items() for name in names
            if name != "ROW_BLOCK" and name.endswith(("BLOCK", "BLOCK_TOKENS"))] == []

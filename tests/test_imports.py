"""Every module-level import of the package is read in its own module, no line is longer
than 100 characters, only ``errors.py`` reaches the network or sleeps, only ``corpus.py``
sets a block size, and no ``np.unique`` call (or anything else in a run) imports
``numpy.ma``."""

import ast
import os
import pathlib
import subprocess
import sys

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


def plain_unique_calls(source: str) -> list[int]:
    """Lines of the ``np.unique(...)`` calls that pass no ``return_*`` keyword."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and not any((k.arg or "").startswith("return_") for k in node.keywords)]


def test_every_np_unique_call_takes_the_sort_path():
    """A plain ``np.unique`` first calls ``np.ma.is_masked``, which imports ``numpy.ma``
    (and ``inspect``) into the run, then takes numpy's hash-table path: about 19 times
    slower than the sort path on 30,000 mostly distinct int64 keys. Any ``return_*``
    argument keeps it on the sort path, with the same values out."""
    assert plain_unique_calls("np.unique(a)\nnp.unique(b, return_counts=True)\n"
                              "np.unique(c, axis=0)\nx.unique(d)\n") == [1, 3]
    calls = {p.name: plain_unique_calls(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in calls.items() if lines} == {}, (
        "np.unique without a return_* argument takes numpy's hash path and imports numpy.ma")


def test_a_run_leaves_numpy_ma_unimported(tmp_path):
    script = ("import sys\n"
              "from labelforge.config import PipelineConfig\n"
              "from labelforge.pipeline import run_pipeline\n"
              "from labelforge.synth import make_separable_corpus\n"
              "run_pipeline(PipelineConfig(max_rounds=1), make_separable_corpus(0, 300, 30, 80),"
              " sys.argv[1])\n"
              "print('numpy.ma' in sys.modules, 'labelforge.downstream' in sys.modules)\n")
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False True"

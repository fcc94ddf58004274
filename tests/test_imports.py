"""Every module-level import in the package is used by its module, no
module reaches scipy's dense or sparse linear algebra, the package and its
command line load no scipy until the first operator build, which loads
``scipy.sparse``, and an alignment run loads neither linear algebra, nor
``scipy.optimize``, which loads both.

No linter runs on this code base, so a deletion that leaves an import
behind is caught here, with the standard library's ``ast``.  scipy's
linear algebra runs on a second OpenBLAS thread pool beside numpy's, and
the two pools contend for the cores: with both active the median match-m20
trial took 165 ms against 106 ms with numpy's pool alone.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ppmalign

MODULES = sorted(Path(ppmalign.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads.

    A name listed in ``__all__`` counts as read: that is how a package
    re-exports it.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    src = "import io\nimport math\nfrom os import path as p, sep\n__all__ = ['sep']\nmath.pi\n"
    assert unused_imports(src) == ["line 1: io", "line 3: p"]


SCIPY_LINALG = ("scipy.linalg", "scipy.sparse.linalg")


def _is_linalg(module: str) -> bool:
    return any(module == m or module.startswith(m + ".") for m in SCIPY_LINALG)


def scipy_linalg_uses(source: str) -> list[str]:
    """Lines that import or reach scipy.linalg or scipy.sparse.linalg.

    Covers ``import`` and ``from`` forms at any depth, attribute chains
    from a name bound to a scipy module (``sp.linalg`` after ``import
    scipy.sparse as sp``) and the module name as a string, as passed to
    ``importlib.import_module``.
    """
    tree = ast.parse(source)
    hits, bound = set(), {}  # bound: local name -> scipy module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_linalg(alias.name):
                    hits.add(node.lineno)
                if alias.name.startswith("scipy"):
                    bound[alias.asname or "scipy"] = alias.name if alias.asname else "scipy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            for alias in node.names:
                module = f"{node.module}.{alias.name}"
                if _is_linalg(module):
                    hits.add(node.lineno)
                bound[alias.asname or alias.name] = module
        elif isinstance(node, ast.Constant) and node.value in SCIPY_LINALG:
            hits.add(node.lineno)
    for node in ast.walk(tree):
        path, base = [], node
        while isinstance(base, ast.Attribute):
            path.append(base.attr)
            base = base.value
        if path and isinstance(base, ast.Name) and base.id in bound:
            if _is_linalg(".".join([bound[base.id], *reversed(path)])):
                hits.add(node.lineno)
    return [f"line {line}" for line in sorted(hits)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_linalg(path):
    assert scipy_linalg_uses(path.read_text()) == []


@pytest.mark.parametrize("src", [
    "import scipy.linalg",
    "import scipy.sparse.linalg as spla",
    "from scipy import linalg",
    "from scipy.sparse import linalg as sl",
    "from scipy.linalg import eigh",
    "from scipy.sparse.linalg import eigsh, LinearOperator",
    "def f():\n    from scipy.linalg import svd",
    "import scipy.sparse as sp\nsp.linalg.eigsh",
    "import scipy\nscipy.sparse.linalg.eigsh",
    "from scipy import sparse\nsparse.linalg.svds",
    "import importlib\nimportlib.import_module('scipy.linalg')",
])
def test_detects_scipy_linalg(src):
    assert scipy_linalg_uses(src) != []


def test_allows_scipy_sparse_and_numpy_linalg():
    src = ("import numpy as np\nimport scipy.sparse as sp\nfrom scipy.optimize import "
           "linear_sum_assignment\nnp.linalg.eigh\nsp.csr_matrix\n")
    assert scipy_linalg_uses(src) == []


def test_alignment_run_loads_no_scipy_linalg_or_optimize():
    # scipy.optimize loads both linear algebra packages, so the assignment
    # solver is imported only where matching calls it
    code = ("import sys, ppmalign\n"
            "ppmalign.run_trial(ppmalign.ExperimentConfig(m=3), 40, 0.8, 0, 0)\n"
            "print(' '.join(m for m in ['scipy.optimize', *sys.argv[1:]] if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code, *SCIPY_LINALG], capture_output=True,
                         text=True, check=True, cwd=Path(ppmalign.__file__).parents[1])
    assert out.stdout.split() == []


def test_matching_loads_the_assignment_solver_at_first_call():
    code = ("import sys, ppmalign\n"
            "print('scipy.optimize' in sys.modules)\n"
            "ppmalign.match_solve(ppmalign.sample_match_observations(6, 3, 0.1, seed=1)[0], 5, seed=2)\n"
            "print('scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(ppmalign.__file__).parents[1])
    assert out.stdout.split() == ["False", "True"]


def scipy_loaded(code: str) -> list[list[str]]:
    """Run code in a fresh interpreter; each ``loaded()`` it calls gives
    the scipy modules in ``sys.modules`` by then, sorted.  What the code
    itself prints, as a CLI command does, goes to the null device."""
    prelude = ("import json, os, sys\n"
               "_out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
               "def loaded():\n"
               "    print(json.dumps(sorted(m for m in sys.modules\n"
               "                            if m.split('.')[0] == 'scipy')), file=_out)\n")
    out = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                         text=True, cwd=Path(ppmalign.__file__).parents[1])
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


@pytest.mark.parametrize("argv, status", [
    (["thresholds", "--n", "1000", "--m", "3"], 0),
    (["align", "--bogus", "1"], 2),
    (["align", "--n", "zero"], 2),
    (["--help"], 0),
])
def test_package_and_cli_without_an_operator_load_no_scipy(argv, status):
    code = ("import ppmalign, ppmalign.cli\n"
            "loaded()\n"
            "try:\n"
            f"    status = ppmalign.cli.main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    status = exc.code\n"
            f"assert status == {status}, status\n"
            "loaded()\n")
    assert scipy_loaded(code) == [[], []]


@pytest.mark.parametrize("make", [
    "ppmalign.build(ppmalign.sample_observations("
    "[1, 2, 3, 1, 2], ppmalign.random_corruption(0.8, 3), 0.5, seed=1))",
    "ppmalign.DenseBlockMatrix(ppmalign.sample_match_observations(6, 3, 0.1, seed=1)[0])",
], ids=["build", "DenseBlockMatrix"])
def test_first_operator_build_loads_scipy_sparse_alone(make):
    code = f"import ppmalign\nloaded()\n{make}\nloaded()\n"
    before, after = scipy_loaded(code)
    assert before == []
    assert "scipy.sparse" in after
    assert [m for m in after if m == "scipy.optimize" or _is_linalg(m)] == []


ROOT = Path(__file__).resolve().parents[1]
READERS = ([p for p in MODULES if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def names_read(source: str) -> set[str]:
    """Names a module loads, as a bare name, an attribute or a part of a
    dotted string constant (the bench names what it wraps by string)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    # a name only unit tests read is an oracle; it belongs in tests/conftest.py
    read = set().union(*(names_read(p.read_text()) for p in READERS))
    assert sorted(set(ppmalign.__all__) - read) == []


def test_names_read_sees_loads_attributes_and_dotted_strings():
    src = ("from ppmalign import a\nb = 1\nc(ppmalign.d)\n"
           "Wrap('x', 'ppmalign.matching.E', 'f')\n")
    assert names_read(src) == {"c", "ppmalign", "d", "Wrap", "x", "matching", "E", "f"}

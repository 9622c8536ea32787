"""Every name a library module imports, and every private name it defines at
module level, is used in that module; only ``streams`` makes generators,
only ``mspe`` replays keyed streams into worlds, and only ``mmdist`` draws
from generators."""

import ast
from pathlib import Path

import pytest

import nerboot

MODULES = sorted(
    path
    for path in Path(nerboot.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # its imports are the package's re-exports
)


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: tau"]


def _unused_private_names(source: str) -> list:
    """Module-level ``_x`` names (not dunders) that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"line {line}: {name}" for name, line in defined.items() if name not in read
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_private_names(path):
    assert _unused_private_names(path.read_text()) == []


def test_unused_private_name_is_reported():
    source = (
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _used():\n    return _A\n"
        "def _stale():\n    pass\n"
        "class _Old:\n    pass\n"
        "print(_used())\n"
    )
    assert _unused_private_names(source) == [
        "line 2: _B", "line 6: _stale", "line 8: _Old"
    ]


# constructors of numpy generators, bit generators and seed sequences
GENERATOR_MAKERS = {"default_rng", "SeedSequence", "PCG64", "Generator"}
# the generator methods that the laws of ``mmdist`` draw with
LAW_DRAWS = {
    "random", "standard_normal", "standard_gamma", "gamma", "chisquare",
    "exponential", "standard_t", "logistic",
}


def _calls(source: str, names: set) -> list:
    """Calls of a function or method named in ``names``; annotations are not
    calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in names:
            found.append(f"line {node.lineno}: {name}")
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [p for p in Path(nerboot.__file__).parent.glob("*.py") if p.name != "streams.py"],
    ids=lambda path: path.name,
)
def test_only_streams_makes_generators(path):
    assert _calls(path.read_text(), GENERATOR_MAKERS) == []


def test_generator_call_is_reported():
    source = (
        "import numpy as np\n"
        "from numpy.random import PCG64, Generator\n"
        "def draw(rng: np.random.Generator) -> np.random.Generator:\n"
        "    return np.random.default_rng(3), Generator(PCG64(1))\n"
        "seq = np.random.SeedSequence(5)\n"
    )
    assert _calls(source, GENERATOR_MAKERS) == [
        "line 4: Generator",
        "line 4: PCG64",
        "line 4: default_rng",
        "line 5: SeedSequence",
    ]


# the calls that turn seed words into generators and generators into worlds
WORLD_MAKERS = {"replay", "_draw_worlds"}


@pytest.mark.parametrize(
    "path",
    [p for p in Path(nerboot.__file__).parent.glob("*.py") if p.name != "mspe.py"],
    ids=lambda path: path.name,
)
def test_only_mspe_replays_keyed_streams(path):
    # every other module draws its worlds through ``mspe._keyed_draw``
    assert _calls(path.read_text(), WORLD_MAKERS) == []


def test_world_maker_call_is_reported():
    source = (
        "from . import streams\n"
        "from .mspe import _draw_worlds\n"
        "def draw(d, states, laws):\n"
        "    rngs = list(streams.replay(states))\n"
        "    return _draw_worlds(d, laws, rngs)\n"
    )
    assert _calls(source, WORLD_MAKERS) == [
        "line 4: replay",
        "line 5: _draw_worlds",
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in Path(nerboot.__file__).parent.glob("*.py") if p.name != "mmdist.py"],
    ids=lambda path: path.name,
)
def test_only_mmdist_draws_from_generators(path):
    assert _calls(path.read_text(), LAW_DRAWS) == []


def test_law_draw_call_is_reported():
    source = (
        "import numpy as np\n"
        "def draw(rng, n):\n"
        "    x = rng.uniform(0.5, 1.0, n) + rng.chisquare(5.0, n)\n"
        "    rng.standard_gamma(3.0, out=x)\n"
        "    return x * np.random.default_rng(1).random(n)\n"
    )
    assert _calls(source, LAW_DRAWS) == [
        "line 3: chisquare",
        "line 4: standard_gamma",
        "line 5: random",
    ]

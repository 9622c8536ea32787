"""Every name a library module imports, and every private name it defines at
module level, is used in that module; only ``streams`` makes generators and
reads the seed range, only ``mspe`` derives seed words and replays keyed
streams into worlds, only ``mmdist`` draws from generators, only ``pipeline``
starts threads, only ``simulate`` starts processes, only ``mspe`` fits a
dataset's responses and only ``pipeline`` and ``mmdist.sample`` make
``Buffers`` sets."""

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


def _reads(source: str, name: str) -> list:
    """Where ``name`` is read: as a bare name, an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}"] * names.count(name)
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [p for p in Path(nerboot.__file__).parent.glob("*.py") if p.name != "streams.py"],
    ids=lambda path: path.name,
)
def test_only_streams_reads_max_seed(path):
    # a seed's range is checked by the key rule of ``streams`` alone
    assert _reads(path.read_text(), "MAX_SEED") == []


def test_max_seed_read_is_reported():
    source = (
        "from . import streams\n"
        "from .streams import MAX_SEED, substream\n"
        "def check(seed, MAX_SEED_BITS=64):\n"
        "    return 0 <= seed <= MAX_SEED and seed != streams.MAX_SEED\n"
    )
    assert _reads(source, "MAX_SEED") == [
        "line 2: MAX_SEED",
        "line 4: MAX_SEED",
        "line 4: MAX_SEED",
    ]


# the calls that derive seed words, turn them into generators and generators
# into worlds
WORLD_MAKERS = {"substream_states", "replay", "_draw_worlds"}


@pytest.mark.parametrize(
    "path",
    [p for p in Path(nerboot.__file__).parent.glob("*.py") if p.name != "mspe.py"],
    ids=lambda path: path.name,
)
def test_only_mspe_replays_keyed_streams(path):
    # every other module keys its worlds through ``mspe._level_states`` and
    # draws them through ``mspe._keyed_draw``
    assert _calls(path.read_text(), WORLD_MAKERS) == []


def test_world_maker_call_is_reported():
    source = (
        "from . import streams\n"
        "from .mspe import _draw_worlds\n"
        "def draw(d, tails, laws):\n"
        "    states = streams.substream_states(7, streams.STUDY, tails=tails)\n"
        "    rngs = list(streams.replay(states))\n"
        "    return _draw_worlds(d, laws, rngs)\n"
    )
    assert _calls(source, WORLD_MAKERS) == [
        "line 4: substream_states",
        "line 5: replay",
        "line 6: _draw_worlds",
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


# the calls that start threads, which only the level engine of ``pipeline``
# makes, and processes, which only the study pool of ``simulate`` makes
STARTERS = {
    "pipeline.py": {"Thread", "ThreadPoolExecutor"},
    "simulate.py": {"Process", "Pool", "ProcessPoolExecutor"},
}


@pytest.mark.parametrize(
    "path", list(Path(nerboot.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_only_pipeline_starts_threads_and_only_simulate_processes(path):
    others = [names for module, names in STARTERS.items() if module != path.name]
    assert _calls(path.read_text(), set().union(*others)) == []


def test_thread_or_process_start_is_reported():
    source = (
        "import threading\n"
        "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
        "def run(work, jobs, pool: ThreadPoolExecutor):\n"
        "    threading.Thread(target=work).start()\n"
        "    with ThreadPoolExecutor(2) as pool, ProcessPoolExecutor(jobs) as procs:\n"
        "        return pool, procs\n"
    )
    assert _calls(source, set().union(*STARTERS.values())) == [
        "line 4: Thread",
        "line 5: ProcessPoolExecutor",
        "line 5: ThreadPoolExecutor",
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in Path(nerboot.__file__).parent.glob("*.py") if p.name != "mspe.py"],
    ids=lambda path: path.name,
)
def test_only_mspe_fits_a_dataset(path):
    # every other fit is of worlds refitted from their draws; a dataset's y
    # is fitted once, by ``mspe_report``
    assert _calls(path.read_text(), {"fit_model"}) == []


def test_fit_model_call_is_reported():
    source = (
        "import nerboot\n"
        "from .pipeline import fit_model\n"
        "def fit(d, fit_model=fit_model):\n"
        "    return fit_model(d), nerboot.fit_model(d)\n"
    )
    assert _calls(source, {"fit_model"}) == ["line 4: fit_model", "line 4: fit_model"]


def _buffers_made(source: str) -> list:
    """Calls of ``Buffers``, each with the module-level function or class
    that makes it, if any."""
    found = []
    for top in ast.parse(source).body:
        owner = f": {top.name}" if hasattr(top, "name") else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "Buffers" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                found.append(f"line {node.lineno}{owner}")
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [p for p in Path(nerboot.__file__).parent.glob("*.py") if p.name != "pipeline.py"],
    ids=lambda path: path.name,
)
def test_only_pipeline_and_mmdist_sample_make_buffers(path):
    # every level's arenas follow the one rule of ``pipeline``, which makes
    # them; ``mmdist.sample`` draws one world outside any level
    made = _buffers_made(path.read_text())
    if path.name == "mmdist.py":
        made = [line for line in made if not line.endswith(": sample")]
    assert made == []


def test_buffers_made_is_reported():
    source = (
        "from . import pipeline\n"
        "from .pipeline import Buffers\n"
        "SHARED = Buffers()\n"
        "def level(d, buffers: Buffers = None):\n"
        "    return pipeline.Buffers() if buffers is None else buffers\n"
        "class Level:\n"
        "    def __init__(self):\n"
        "        self.buffers = Buffers()\n"
    )
    assert _buffers_made(source) == ["line 3", "line 5: level", "line 8: Level"]

"""Backend parity: numpy and pure-Python row-min agree bit-for-bit."""

from __future__ import annotations

import pytest

from repro.compat import HAVE_NUMPY
from repro.kernel import KernelWorld, NumpyBackend, PurePythonBackend, make_backend
from repro.kernel import world as kernel_world
from repro.optimizer import SelectionProblem


def test_auto_prefers_python_for_small_worlds():
    backend = make_backend([1.0, 2.0], [[], []], 3)
    assert isinstance(backend, PurePythonBackend)


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
def test_auto_prefers_numpy_for_large_worlds():
    base = [1.0] * 64
    entries = [[] for _ in base]
    backend = make_backend(base, entries, 64)
    assert isinstance(backend, NumpyBackend)


def _build_on(backend, inputs, monkeypatch):
    """Factor ``inputs`` on the given backend class, whatever its shape."""
    with monkeypatch.context() as patch:
        patch.setattr(kernel_world, "make_backend", backend)
        return KernelWorld.build(inputs)


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_bitwise(seed, random_world_factory, monkeypatch):
    """Both backends price every sampled subset to identical reprs."""
    import random
    from itertools import combinations

    world = random_world_factory(500 + seed)
    with_numpy = _build_on(NumpyBackend, world.inputs, monkeypatch)
    with_python = _build_on(PurePythonBackend, world.inputs, monkeypatch)
    assert with_numpy is not None and with_python is not None
    assert with_numpy.backend_name == "numpy"
    assert with_python.backend_name == "python"

    names = [c.name for c in world.candidates]
    rng = random.Random(seed)
    subsets = [frozenset()] + [frozenset({n}) for n in names]
    subsets += [frozenset(p) for p in combinations(names, 2)][:8]
    if names:
        subsets.append(frozenset(rng.sample(names, rng.randint(1, len(names)))))
    for subset in subsets:
        assert repr(with_numpy.evaluate(subset)) == repr(
            with_python.evaluate(subset)
        )


def test_pure_python_backend_runs_without_numpy(random_world_factory):
    """The fallback works regardless of the environment; under the
    no-numpy CI job it is also what `auto` resolves to."""
    world = random_world_factory(42)
    problem = SelectionProblem(world.inputs, kernel=True)
    outcome = problem.baseline()
    assert outcome.total_cost == problem.baseline().total_cost
    assert problem._kernel_world is not None
    if not HAVE_NUMPY:
        assert problem._kernel_world.backend_name == "python"


"""The vectorized evaluation kernel (ROADMAP item 1).

Prices every query against every candidate view in one pre-factored
pass per numeric world, then answers any subset as a masked row-min
plus vector gathers — with ledgers that stay **byte-identical** to the
exact-Decimal oracle path it accelerates (see
:mod:`repro.kernel.world` for the contract).

The kernel is on by default and engages transparently inside
:meth:`repro.optimizer.problem.SelectionProblem.evaluate`; every
consumer above that seam — greedy and knapsack marginals, the
lifecycle simulator's sync and async epoch accounting, Monte Carlo
trials, arbitrage counterfactual books — gets it for free.  Opting
out:

* ``REPRO_NO_KERNEL=1`` in the environment (inherited by Monte Carlo
  worker processes under both fork and spawn);
* ``--no-kernel`` on the CLI (sets the variable for the run);
* ``SelectionProblem(..., kernel=False)`` per problem;
* :func:`set_kernel_enabled` as a scoped override in tests.

Worlds the kernel cannot faithfully reproduce (cascade
materialization, subclassed cost models, inputs the oracle rejects)
silently fall back to the oracle — the flag never changes results,
only speed, and the ``tests/kernel`` property suite holds it to that.
"""

from __future__ import annotations

import os
from typing import Optional

from .backend import NumpyBackend, PurePythonBackend, make_backend
from .screen import ScreeningWorld
from .world import KernelWorld

__all__ = [
    "KernelWorld",
    "NO_KERNEL_ENV",
    "NumpyBackend",
    "PurePythonBackend",
    "ScreeningWorld",
    "kernel_enabled",
    "make_backend",
    "set_kernel_enabled",
]

#: Environment variable that disables the kernel when set truthy.
NO_KERNEL_ENV = "REPRO_NO_KERNEL"

_OVERRIDE: Optional[bool] = None


def kernel_enabled() -> bool:
    """Whether new problems should try the kernel path.

    A process-level test override (:func:`set_kernel_enabled`) wins;
    otherwise the kernel is on unless ``REPRO_NO_KERNEL`` is set to a
    non-empty value other than ``"0"``.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get(NO_KERNEL_ENV, "") in ("", "0")


def set_kernel_enabled(value: Optional[bool]) -> Optional[bool]:
    """Force the kernel on/off for this process; ``None`` restores the
    environment-driven default.  Returns the previous override so
    tests can put it back.
    """
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = value
    return previous

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
trials, arbitrage counterfactual books — gets it for free.
``SelectionProblem(inputs, kernel=False)`` prices one problem on the
exact-Decimal oracle instead; that per-problem switch is the one
opt-out, and the oracle-identity tests compare against it.  The same
world also screens subsets in float cents for the anytime searches
(:meth:`~repro.kernel.world.KernelWorld.screen`, reached through
:meth:`~repro.optimizer.problem.SelectionProblem.screener`).

Worlds the kernel cannot faithfully reproduce (cascade
materialization, inputs the oracle rejects) silently fall back to the
oracle — the switch never changes results, only speed, and the
``tests/kernel`` property suite holds it to that.
"""

from __future__ import annotations

from .backend import NumpyBackend, PurePythonBackend, make_backend
from .world import KernelWorld

__all__ = [
    "KernelWorld",
    "NumpyBackend",
    "PurePythonBackend",
    "make_backend",
]

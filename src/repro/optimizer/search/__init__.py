"""Anytime search optimizers over huge candidate lattices (ROADMAP 2).

The classic trio (knapsack / greedy / exhaustive) caps out when a
generated lattice reaches thousands of candidate views: exhaustive is
exponential and greedy re-prices every candidate every round.  This
package adds search algorithms that scale by *screening* — ranking
candidate moves on the kernel's float-cent screen
(:meth:`repro.kernel.KernelWorld.screen`) and spending exact ``Money``
evaluations only on screened winners:

* :class:`~repro.optimizer.search.beam.BeamSearchSpec` (``"beam"``) —
  beam over sampled add/drop/swap neighborhoods;
* :class:`~repro.optimizer.search.anneal.LocalSearchSpec` (``"local"``)
  — a simulated-annealing walker with Metropolis acceptance;
* :mod:`~repro.optimizer.search.pruning` — benefit-similarity
  clustering that shrinks the pool before either algorithm starts,
  at zero evaluation cost.

All of them are **anytime** under an evaluation-count
:class:`~repro.optimizer.search.budget.SearchBudget` and **warm-start**
from a previous epoch's holdings; the contracts (byte-determinism per
seed, budget monotonicity, exact finally-reported outcomes) are spelled
out in the submodule docstrings and held by ``tests/optimizer/
test_search.py``.
"""

from .anneal import LocalSearchSpec
from .beam import BeamSearchSpec
from .budget import BudgetedEvaluator, SearchBudget
from .moves import proposal, state_moves
from .pruning import benefit_vectors, prune_candidates
from .proxy import proxy_key_fn, proxy_scalar_fn
from .ranking import MoveRanker, exact_order

__all__ = [
    "BeamSearchSpec",
    "BudgetedEvaluator",
    "LocalSearchSpec",
    "MoveRanker",
    "SearchBudget",
    "benefit_vectors",
    "exact_order",
    "proposal",
    "prune_candidates",
    "proxy_key_fn",
    "proxy_scalar_fn",
    "state_moves",
]

"""Proxy ranking: order candidate moves from a cents-only screen.

A screen (:meth:`~repro.kernel.world.KernelWorld.screen`) yields
``(exact single-run hours, float-cent period bill)``.  This module
turns that pair into a *minimization key* shaped after each scenario's
own ordering, so a search can rank a whole neighborhood without
pricing any of it:

* **MV1** (budget) — infeasible screens rank by budget overshoot, then
  everything by hours (the scenario's objective), then cents;
* **MV2** (deadline) — overshoot of the time limit first, then cents,
  then hours;
* **MV3** (tradeoff) — the weighted objective itself, reconstructed in
  float (including the normalized and cost-scaled variants).

Scenario types without a proxy (fair-share envelopes, user-defined
scenarios) return ``None`` from :func:`proxy_key_fn`; searches then
fall back to ranking on budgeted exact evaluations — slower, still
deterministic.

Ranking keys are approximate by construction (screened cents carry
float error against the Decimal bill), which is why they only ever
*order* candidates: whatever wins the screen is re-priced exactly
before it can be reported.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..scenarios import BudgetLimit, Scenario, TimeLimit, Tradeoff

__all__ = ["proxy_key_fn", "proxy_scalar_fn"]

#: A proxy ranking function: (hours, cents) -> minimization key.
ProxyKey = Callable[[float, float], Tuple[float, ...]]


def proxy_key_fn(scenario: Scenario) -> Optional[ProxyKey]:
    """The scenario's screen-ranking key, or ``None`` if it has none."""
    if isinstance(scenario, BudgetLimit):
        budget_cents = float(scenario.budget.amount * 100)

        def mv1(hours: float, cents: float) -> Tuple[float, ...]:
            over = cents - budget_cents
            return (over if over > 0 else 0.0, hours, cents)

        return mv1
    if isinstance(scenario, TimeLimit):
        limit = scenario.limit_hours

        def mv2(hours: float, cents: float) -> Tuple[float, ...]:
            over = hours - limit
            return (over if over > 0 else 0.0, cents, hours)

        return mv2
    if isinstance(scenario, Tradeoff):
        alpha = scenario.alpha

        def mv3(hours: float, cents: float) -> Tuple[float, ...]:
            h = hours
            c = (cents / 100.0) * scenario.cost_scale
            if scenario.normalized:
                h = h / scenario.baseline_hours
                c = c / (scenario.baseline_cost * scenario.cost_scale)
            return (alpha * h + (1.0 - alpha) * c,)

        return mv3
    return None


def proxy_scalar_fn(scenario: Scenario) -> Optional[Callable[[float, float], float]]:
    """A single-number form of the proxy, for annealing acceptance.

    Simulated annealing needs a scalar energy to take deltas of.
    Infeasible screens are pushed above every feasible one by mapping
    overshoot into a large offset *relative to the constraint*, so the
    Metropolis rule still sees graded progress toward feasibility.
    """
    if isinstance(scenario, BudgetLimit):
        budget_cents = max(float(scenario.budget.amount * 100), 1.0)

        def mv1(hours: float, cents: float) -> float:
            over = cents - budget_cents
            if over > 0:
                return 1e9 * (1.0 + over / budget_cents)
            return hours

        return mv1
    if isinstance(scenario, TimeLimit):
        limit = max(scenario.limit_hours, 1e-9)

        def mv2(hours: float, cents: float) -> float:
            over = hours - limit
            if over > 0:
                return 1e9 * (1.0 + over / limit)
            return cents

        return mv2
    key = proxy_key_fn(scenario)
    if key is None:
        return None
    return lambda hours, cents: key(hours, cents)[0]

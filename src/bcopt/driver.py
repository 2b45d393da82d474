"""Top-level approximation scheme: enumerate profitable prefixes from
the representative set, solve with the non-profitable solver each
residual whose profit bound (the constraint's `bound`) can beat the
best so far, return the best combination."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .lagrangian import residual_tail
from .model import BCInstance, Solution, low_profit_ids, _rat
from .oracles import iter_solutions
from .repset import RepSetResult, checked_key, repset


@dataclass(frozen=True)
class EptasRun:
    solution: Solution
    epsilon: Fraction
    alpha: Fraction
    rep: RepSetResult
    enumerated: int
    fallbacks: int


def eptas_run(
    inst: BCInstance,
    eps: Fraction,
    strategy: str = "auto",
    alpha_mode: str = "two-approx",
    max_exhaustive: int = 24,
    prune: bool = False,
) -> EptasRun:
    """Full scheme run with a report.

    Every solution-of-I subset F of R with |F| ≤ ⌊1/ε⌋ is enumerated
    (depth-first with hereditary and budget pruning; the winner is
    order-independent because comparison is (profit, lex)); the residual
    of each F, over E(α) computed once per run, goes to the
    non-profitable solver.  Under strategy="exhaustive" a residual with
    more survivors than max_exhaustive is solved as "auto" instead, which
    the gate sends to the Lagrangian path, and is counted as a fallback.

    A prefix whose p(F) plus its constraint `bound` over E(α) is below
    the best profit so far is not solved: no tail of it can win, so the
    solution is unchanged.  Without prune every prefix is still
    enumerated and counted, fallbacks included.

    With prune, the walk also drops every extension of F when p(F) plus
    F's bound over R ∪ E(α) is below the best profit so far: an
    extension's further elements and its tail are survivors of F, at
    most room(state) of them, each within β − c(F).  The cut is strict,
    so the winner and its tie-break are unchanged, but `enumerated` and
    `fallbacks` count only the prefixes the pruned walk visits.
    """
    rep = repset(inst, eps, alpha_mode=alpha_mode)
    eps = rep.params.epsilon
    alpha = rep.alpha
    cap = int(1 / eps)  # ⌊1/ε⌋ exact: Fraction floor division
    best: tuple[int, tuple[int, ...]] = (0, ())  # the empty solution's key
    enumerated = 0
    fallbacks = 0
    low = low_profit_ids(inst, eps, alpha)
    P, C = inst.int_profit, inst.int_cost
    desc = sorted(low, key=lambda e: (-P[e], e))
    desc_all = sorted(rep.union.union(low), key=lambda e: (-P[e], e))
    c = inst.constraint
    bound = c.bound

    # True when p(F) plus F's bound over pool is below the best profit;
    # the walk asks it over R ∪ E(α) as the cut of F's children once F's
    # candidate is in best
    def below(
        state: int, cost: int, profit: int, pool: Sequence[int] = desc_all
    ) -> bool:
        need = -best[0] - profit
        return bound(state, pool, P, C, inst.int_budget - cost, need) < need

    walk = iter_solutions(
        inst, candidates=sorted(rep.union), max_size=cap,
        cut=below if prune else None,
    )
    for pinned, state, cost, profit in walk:
        enumerated += 1
        # an empty residual needs no solve, whatever the gate
        fallback = strategy == "exhaustive" and (
            len(c.survivors(state, low)) > max(max_exhaustive, 0)
        )
        fallbacks += fallback
        if below(state, cost, profit, desc):
            continue
        tail = residual_tail(
            inst, pinned, low, "auto" if fallback else strategy, max_exhaustive
        )
        best = min(best, checked_key(inst, pinned, tail))
    return EptasRun(
        solution=Solution.of(inst, best[1]),
        epsilon=eps,
        alpha=alpha,
        rep=rep,
        enumerated=enumerated,
        fallbacks=fallbacks,
    )


def _core_epsilon(eps: Fraction | int) -> Fraction:
    """The core scheme's ε for a (1−ε) guarantee: ε/8, for 0 < ε < 1."""
    eps = _rat(eps)
    if not 0 < eps < 1:
        raise InputError(f"epsilon must be in (0, 1), got {eps}")
    return eps / 8


def approximate(
    inst: BCInstance,
    eps: Fraction,
    strategy: str = "auto",
    alpha_mode: str = "two-approx",
    max_exhaustive: int = 24,
) -> Solution:
    """Solution with p ≥ (1−ε)·OPT, by running the core scheme at ε/8.

    The run prunes its prefix walk (`eptas_run`'s prune): only the
    solution is returned, and the cut leaves it unchanged."""
    return eptas_run(
        inst, _core_epsilon(eps), strategy=strategy, alpha_mode=alpha_mode,
        max_exhaustive=max_exhaustive, prune=True,
    ).solution

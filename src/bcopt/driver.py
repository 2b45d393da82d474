"""Top-level approximation scheme: enumerate profitable prefixes from
the representative set, solve with the non-profitable solver each
residual whose profit bound (the constraint's `bound`) can beat the
best so far, return the best combination."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .lagrangian import residual_tail
from .model import BCInstance, Solution, low_profit_ids, _rat
from .oracles import MAX_EXHAUSTIVE, iter_solutions
from .repset import RepSetResult, checked_key, profit_cut, repset


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
    max_exhaustive: int = MAX_EXHAUSTIVE,
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
    best = [(0, ())]  # the incumbent key, the empty solution's first
    enumerated = 0
    fallbacks = 0
    low = low_profit_ids(inst, eps, alpha)
    P = inst.int_profit
    desc = sorted(low, key=lambda e: (-P[e], e))
    desc_all = sorted(rep.union.union(low), key=lambda e: (-P[e], e))
    c = inst.constraint
    # the walk asks the cut over R ∪ E(α); a residual's skip test is over E(α)
    below = profit_cut(inst, best, desc_all)
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
        scope = inst.residual(state, cost, low)
        tail = residual_tail(
            inst, scope, "auto" if fallback else strategy, max_exhaustive
        )
        best[0] = min(best[0], checked_key(inst, pinned, tail))
    return EptasRun(
        solution=Solution.of(inst, best[0][1]),
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


def approximate(inst: BCInstance, eps: Fraction) -> Solution:
    """Solution with p ≥ (1−ε)·OPT, by running the core scheme at ε/8.

    The run prunes its prefix walk (`eptas_run`'s prune): only the
    solution is returned, and the cut leaves it unchanged."""
    return eptas_run(inst, _core_epsilon(eps), prune=True).solution

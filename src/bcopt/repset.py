"""The 2-approximation that seeds α, the per-class assembly of the
representative set, and what the 2-approximation shares with the
scheme's prefix enumeration: `checked_key`, the check and order of a
candidate, and `profit_cut`, the constraint's profit `bound` that skips
a residual solve.  Both solve the rest with `lagrangian.residual_tail`."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InputError, InvariantError
from .exchange import exset_matching, exset_matroid_intersection
from .lagrangian import residual_tail
from .model import (
    BCInstance,
    ProfitClassing,
    SchemeParams,
    Solution,
    profit_classes,
    scheme_params,
)
from .oracles import brute_force_opt, iter_solutions


def checked_key(
    inst: BCInstance, pinned: tuple[int, ...], tail: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """The candidate key (`BCInstance.key_of`) of F ∪ tail.  Raises
    InvariantError unless the union, recomputed whole, is a solution of
    inst."""
    ids = tuple(sorted(set(pinned) | set(tail)))
    if not inst.constraint.feasible_mask(inst.mask_of(ids)) or (
        sum(inst.int_cost[e] for e in ids) > inst.int_budget
    ):
        raise InvariantError(f"prefix {list(pinned)} plus its tail is infeasible")
    return inst.key_of(ids)


def profit_cut(inst: BCInstance, best: list, pool: Sequence[int]) -> Callable:
    """below(state, cost, profit, pool), True when p(F) plus F's `bound`
    over pool (default: this one, in (profit desc, id) order) is below
    the profit of the incumbent key best[0]; a walk asks it as the cut
    of F's children once F's candidate is in best.  One per walk."""
    bound = inst.constraint.bound
    P, C, budget = inst.int_profit, inst.int_cost, inst.int_budget

    def below(state: int, cost: int, profit: int, pool: Sequence[int] = pool) -> bool:
        need = -best[0][0] - profit
        return bound(state, pool, P, C, budget - cost, need) < need

    return below


def two_approx(inst: BCInstance) -> tuple[Solution, Fraction]:
    """A solution S* with OPT/2 ≤ p(S*) ≤ OPT, and α = p(S*).

    Enumerates every feasible F with |F| ≤ 4; for each, the rest of the
    instance is filtered to elements no more profitable than F's
    cheapest profit (F = ∅ keeps them all) and handed to the
    non-profitable solver.  If an optimal solution has ≤ 4 elements some
    F hits it exactly; otherwise F = its top-4 profits caps the filtered
    maximum at OPT/4 and the Lemma 7 loss at OPT/2.  The value is
    independent of ε, so the result is cached on the instance.

    Only candidates that can beat the incumbent are solved: F's residual
    is skipped when p(F) plus the constraint's `bound` over its filtered
    pool is below the best profit so far, and F's children are not
    walked when p(F) plus the bound over every element is.  Both cuts
    are strict, so a skipped candidate is worse than the winner, which
    is unchanged.
    """
    cached = inst._cache.get("two_approx")
    if cached is not None:
        return cached
    P = inst.int_profit
    desc = sorted(inst.ids, key=lambda e: (-P[e], e))
    # threshold -> its filtered pool, in desc order and in id order; a
    # run has at most n thresholds
    pools: dict[int, tuple[list[int], list[int]]] = {}
    # the incumbent key: above every candidate's (−p ≤ 0), so the empty
    # prefix's replaces it
    best = [(1, ())]
    below = profit_cut(inst, best, desc)
    walk = iter_solutions(inst, max_size=4, cut=below)
    for pinned, state, cost, profit in walk:
        pool = inst.ids
        if pinned:
            threshold = min(P[e] for e in pinned)
            pair = pools.get(threshold)
            if pair is None:
                low = [e for e in desc if P[e] <= threshold]
                pair = pools[threshold] = (low, sorted(low))
            if below(state, cost, profit, pair[0]):
                continue
            pool = pair[1]
        tail = residual_tail(inst, inst.residual(state, cost, pool))
        best[0] = min(best[0], checked_key(inst, pinned, tail))
    sol = Solution.of(inst, best[0][1])
    result = (sol, sol.profit)
    inst._cache["two_approx"] = result
    return result


@dataclass(frozen=True)
class RepSetResult:
    alpha: Fraction
    sstar: Solution
    params: SchemeParams
    classing: ProfitClassing | None
    per_class_sets: dict[int, frozenset[int]]
    union: frozenset[int]


def repset(
    inst: BCInstance,
    eps: Fraction,
    alpha_mode: str = "two-approx",
) -> RepSetResult:
    """Representative set: per nonempty profit class, the matching or
    intersection exchange set; their union is R.  α = 0 (all-zero
    profits) short-circuits to R = ∅."""
    if alpha_mode not in ("two-approx", "exact"):
        raise InputError(f"unknown alpha mode {alpha_mode!r}")
    params = scheme_params(inst, eps)
    if alpha_mode == "exact":
        sstar = brute_force_opt(inst)
    else:
        sstar, _ = two_approx(inst)
    alpha = sstar.profit
    if alpha == 0:
        return RepSetResult(
            alpha=alpha,
            sstar=sstar,
            params=params,
            classing=None,
            per_class_sets={},
            union=frozenset(),
        )
    classing = profit_classes(inst, eps, alpha)
    per_class: dict[int, frozenset[int]] = {}
    union: set[int] = set()
    for r in sorted(classing.classes):
        if inst.constraint.kind == "matching":
            xset = exset_matching(inst, eps, alpha, r, classing=classing)
        else:
            xset = exset_matroid_intersection(inst, eps, alpha, r, classing=classing)
        per_class[r] = xset
        union |= xset
    return RepSetResult(
        alpha=alpha,
        sstar=sstar,
        params=params,
        classing=classing,
        per_class_sets=per_class,
        union=frozenset(union),
    )

"""Exchange-set constructions per profit class: union-of-greedy-matchings
for matching constraints, recursive basis chains for matroid
intersection.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, InvariantError
from .graphs import greedy_matching
from .matroids import _ids_of, min_cost_basis
from .model import (
    BCInstance,
    ProfitClassing,
    SchemeParams,
    profit_classes,
    scheme_params,
)


def class_members(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    classing: ProfitClassing | None,
) -> tuple[SchemeParams, ProfitClassing, tuple[int, ...]]:
    """Parameters, classing and the members of profit class r; raises
    InputError when r is not a class index."""
    params = scheme_params(inst, eps)
    if classing is None:
        classing = profit_classes(inst, eps, alpha)
    if not 1 <= r <= params.class_count:
        raise InputError(f"class index {r} outside 1..{params.class_count}")
    return params, classing, classing.classes.get(r, ())


def exset_matching(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    classing: ProfitClassing | None = None,
) -> frozenset[int]:
    """Union of up to k_eff disjoint greedy matchings of size ≤ N_eff
    inside profit class r.  The loop exits as soon as no class edges
    remain, so astronomically large nominal k never costs time."""
    if inst.constraint.kind != "matching":
        raise InputError("exset_matching requires a matching constraint")
    params, classing, members = class_members(inst, eps, alpha, r, classing)
    graph = inst.constraint.graph
    remaining = set(members)
    collected: set[int] = set()
    for _ in range(params.k_eff):
        if not remaining:
            break
        sub = graph.restrict(remaining)
        matched = greedy_matching(sub, params.n_cap, inst.int_cost)
        if not matched:
            break
        collected.update(matched)
        remaining.difference_update(matched)
    if len(collected) > 18 * params.q_eff**2:
        raise InvariantError(f"exchange set of {len(collected)} exceeds 18·q²")
    return frozenset(collected)


def exset_matroid_intersection(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    classing: ProfitClassing | None = None,
    trace: dict[int, int] | None = None,
) -> frozenset[int]:
    """Exchange set for class r: the chain recursion from S = ∅.

    From the current first-matroid-independent set S: the universe U_S
    holds the class members that S can add in the first matroid
    (`addable`); B_S is the (cost, id) greedy basis of the second
    matroid over U_S, stopped at q_eff elements (`min_cost_basis` with
    among and limit); the result is B_S plus the recursion into S+b for
    each b ∈ B_S.  Recursion stops at |S| ≥ q_eff + 1.  Equal sets are
    expanded once (memoized).  trace, when given, counts the expanded
    nodes by |S|.
    """
    if inst.constraint.kind != "matroid_intersection":
        raise InputError(
            "exset_matroid_intersection requires a matroid-intersection constraint"
        )
    params, classing, members = class_members(inst, eps, alpha, r, classing)
    m1 = inst.constraint.m1
    m2 = inst.constraint.m2
    cutoff = params.q_eff + 1
    memo: dict[frozenset[int], frozenset[int]] = {}
    member_mask = inst.mask_of(members)

    def rec(s: frozenset[int]) -> frozenset[int]:
        if len(s) >= cutoff:
            return frozenset()
        got = memo.get(s)
        if got is not None:
            return got
        if trace is not None:
            trace[len(s)] = trace.get(len(s), 0) + 1
        smask = inst.mask_of(s)
        universe = _ids_of(m1.addable(smask, member_mask & ~smask))
        basis = sorted(min_cost_basis(m2, inst.int_cost, universe, params.q_eff))
        out = set(basis)
        for b in basis:
            out |= rec(s | {b})
        result = frozenset(out)
        memo[s] = result
        return result

    return rec(frozenset())

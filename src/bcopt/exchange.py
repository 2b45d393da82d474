"""Exchange-set constructions per profit class: union-of-greedy-matchings
for matching constraints, recursive basis chains for matroid
intersection, plus the shift/semi-shift/chain predicates used to reason
about them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

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


def extend_chain(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    chain: Iterable[int],
    classing: ProfitClassing | None = None,
    memo: dict[frozenset[int], frozenset[int]] | None = None,
    trace: dict[int, int] | None = None,
    basis_hook: Callable[[frozenset[int]], Iterable[int]] | None = None,
    size_cutoff: int | None = None,
) -> frozenset[int]:
    """Recursive chain extension for matroid-intersection classes.

    From the current first-matroid-independent set S: the universe U_S
    holds the class members that S can add in the first matroid
    (`addable`); B_S is the (cost, id) greedy basis of the second
    matroid over U_S, stopped at q_eff elements (`min_cost_basis` with
    among and limit); the result is B_S plus the recursion into S+b for
    each b ∈ B_S.  Recursion stops at |S| ≥ q_eff + 1.  Equal chains are
    expanded once (memoized); basis_hook and size_cutoff exist so tests
    can pin recursion shapes directly.
    """
    if inst.constraint.kind != "matroid_intersection":
        raise InputError("extend_chain requires a matroid-intersection constraint")
    params, classing, members = class_members(inst, eps, alpha, r, classing)
    chain_set = frozenset(chain)
    unknown = chain_set - inst.id_set
    if unknown:
        raise InputError(f"unknown element ids: {sorted(unknown)}")
    m1 = inst.constraint.m1
    m2 = inst.constraint.m2
    if not m1.is_independent(chain_set):
        raise InputError("chain must be independent in the first matroid")
    cutoff = params.q_eff + 1 if size_cutoff is None else size_cutoff
    if memo is None:
        memo = {}

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
        if basis_hook is not None:
            basis = sorted(basis_hook(s))
        else:
            basis = sorted(min_cost_basis(m2, inst.int_cost, universe, params.q_eff))
        out = set(basis)
        for b in basis:
            out |= rec(s | {b})
        result = frozenset(out)
        memo[s] = result
        return result

    return rec(chain_set)


def exset_matroid_intersection(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    classing: ProfitClassing | None = None,
    trace: dict[int, int] | None = None,
) -> frozenset[int]:
    """Exchange set for class r: the full chain recursion from S = ∅."""
    if inst.constraint.kind != "matroid_intersection":
        raise InputError(
            "exset_matroid_intersection requires a matroid-intersection constraint"
        )
    return extend_chain(
        inst, eps, alpha, r, frozenset(), classing=classing, trace=trace
    )


def _validate_pair(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    delta: Iterable[int],
    a: int,
    b: int | None,
    classing: ProfitClassing | None,
) -> tuple[SchemeParams, frozenset[int], set[int]]:
    params, classing, members = class_members(inst, eps, alpha, r, classing)
    member_set = set(members)
    delta_set = frozenset(delta)
    unknown = delta_set - inst.id_set
    if unknown:
        raise InputError(f"unknown element ids: {sorted(unknown)}")
    if len(delta_set) > params.q_eff:
        raise InputError(f"|Δ| = {len(delta_set)} exceeds q_eff = {params.q_eff}")
    if not inst.constraint_ok(delta_set):
        raise InputError("Δ violates the constraint")
    if a not in delta_set or a not in member_set:
        raise InputError("a must lie in Δ ∩ K_r")
    if b is not None and (b in delta_set or b not in member_set):
        raise InputError("b must lie in K_r \\ Δ")
    return params, delta_set, member_set


def is_shift(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    delta: Iterable[int],
    a: int,
    b: int,
    classing: ProfitClassing | None = None,
) -> bool:
    """b is a shift to a for Δ: no costlier, and the swap stays in
    M_{≤q_eff}."""
    _, delta_set, _ = _validate_pair(inst, eps, alpha, r, delta, a, b, classing)
    if inst.int_cost[b] > inst.int_cost[a]:
        return False
    swapped = (delta_set - {a}) | {b}
    return inst.constraint_ok(swapped)


def is_semi_shift(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    delta: Iterable[int],
    a: int,
    b: int,
    classing: ProfitClassing | None = None,
) -> bool:
    """b is a semi-shift to a for Δ: no costlier, the swap stays
    independent in the second matroid but leaves the first."""
    if inst.constraint.kind != "matroid_intersection":
        raise InputError("semi-shifts are defined for matroid intersection only")
    _, delta_set, _ = _validate_pair(inst, eps, alpha, r, delta, a, b, classing)
    if inst.int_cost[b] > inst.int_cost[a]:
        return False
    swapped = (delta_set - {a}) | {b}
    m = inst.mask_of(swapped)
    c = inst.constraint
    return c.m2.independent_mask(m) and not c.m1.independent_mask(m)


def is_chain(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    chain: Iterable[int],
    a: int,
    delta: Iterable[int],
    classing: ProfitClassing | None = None,
) -> bool:
    """S is a chain of a and Δ: a is addable to S under the first
    matroid and within the class, and every member of S is a semi-shift
    to a for Δ.  The empty set is a chain of every valid pair."""
    if inst.constraint.kind != "matroid_intersection":
        raise InputError("chains are defined for matroid intersection only")
    params, delta_set, member_set = _validate_pair(
        inst, eps, alpha, r, delta, a, None, classing
    )
    chain_set = frozenset(chain)
    unknown = chain_set - inst.id_set
    if unknown:
        raise InputError(f"unknown element ids: {sorted(unknown)}")
    c = inst.constraint
    if not c.m1.is_independent(chain_set):
        raise InputError("chain must be independent in the first matroid")
    # a ∈ U_S
    if a in chain_set or a not in member_set:
        return False
    if not c.m1.is_independent(chain_set | {a}):
        return False
    for e in chain_set:
        if e in delta_set or e not in member_set:
            return False
        if inst.int_cost[e] > inst.int_cost[a]:
            return False
        m = inst.mask_of((delta_set - {a}) | {e})
        if not c.m2.independent_mask(m) or c.m1.independent_mask(m):
            return False
    return True

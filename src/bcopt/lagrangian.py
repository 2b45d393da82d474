"""Lagrangian relaxation, bisection search and patching, and the
residual-tail solve that dispatches between them and exhaustive search.

Together these realize the non-profitable-solver contract: a feasible
solution with p(S) ≥ OPT − 2·max p(e).  The exhaustive strategy meets it
trivially; the Lagrangian strategy meets it through the two-solution
patching of Berger et al. (Math. Prog. 2011), validated
instance-by-instance by the test corpus.

Every solve here runs on a `Scope`, the in-place residual of a pinned
set F (see `model.Constraint`); the default scope is the whole instance,
F = ∅.  `non_profitable_solve(inst)` is the residual tail of F = ∅.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import CapacityError, InputError, InvariantError
from .graphs import connected_components_edges
from .model import BCInstance, Solution, _rat, relaxation_value, relaxation_weights
from .oracles import exhaustive_search, max_weight_matching, mi_extreme_chain


class Scope(NamedTuple):
    """The residual of a pinned set F, solved in place: F's walk state,
    the ascending ids of the elements it keeps, and its budget β − c(F)
    on the instance's integer cost scale."""

    base: int
    ids: tuple[int, ...]
    budget: int


def whole(inst: BCInstance) -> Scope:
    """The scope of F = ∅: every element, the full budget."""
    return Scope(inst.constraint.state_of(()), inst.ids, inst.int_budget)


def _key(inst: BCInstance, ids: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """(−p, sorted ids) on the integer profit scale, the order of
    `Solution.key`: the smaller key wins."""
    ids = tuple(sorted(ids))
    return -sum(inst.int_profit[e] for e in ids), ids


def _fits(inst: BCInstance, scope: Scope, ids: Iterable[int]) -> bool:
    """True iff the set solves the scope's residual: F ∪ ids is feasible
    (one query per matroid) and c(ids) fits the reduced budget."""
    ids = tuple(ids)
    if sum(inst.int_cost[e] for e in ids) > scope.budget:
        return False
    return inst.constraint.join(scope.base, sum(1 << e for e in ids)) is not None


def _winner(inst: BCInstance, scope: Scope, key: tuple, who: str) -> Solution:
    if not _fits(inst, scope, key[1]):
        raise InvariantError(f"{who} produced an infeasible set")
    return Solution.of(inst, key[1])


@dataclass(frozen=True)
class LagrangianCertificate:
    """Bracketing output of the bisection.

    s_minus is feasible (cost ≤ β) and optimal for the relaxation at
    lam_hi; s_plus, when present, is infeasible and optimal at lam_lo.
    lam_lo == lam_hi means an exact breakpoint: both sets are optimal at
    that single λ.  lam and value describe the feasible side.  For an
    intersection constraint, chain is the `mi_extreme_chain` the probe
    at lam computed over the search's scope, or None when the
    certificate was built without one.
    """

    lam: Fraction
    lam_lo: Fraction
    lam_hi: Fraction
    s_minus: frozenset[int]
    s_plus: frozenset[int] | None
    value: Fraction
    probes: int
    chain: tuple[frozenset[int], ...] | None = field(
        default=None, compare=False, repr=False
    )


def relaxation_solve(
    inst: BCInstance,
    lam: Fraction | int,
    scope: Scope | None = None,
) -> tuple[frozenset[int], Fraction, tuple[frozenset[int], ...] | None]:
    """Maximize p(S) − λ·c(S) over the scope's residual (budget ignored).

    Zero-cost elements are force-included afterwards in descending
    (profit, then id) order whenever the constraint permits; they never
    lower the objective.  Returns (S, value, chain), chain being the
    `mi_extreme_chain` behind S for an intersection constraint and None
    for a matching.
    """
    lam = _rat(lam)
    if lam < 0:
        raise InputError("lambda must be nonnegative")
    scope = scope or whole(inst)
    weights = relaxation_weights(inst, lam, scope.ids)
    c = inst.constraint
    chain = None
    if c.kind == "matching":
        chosen = set(max_weight_matching(c.graph, weights))
    else:
        chain = tuple(mi_extreme_chain(c.m1, c.m2, weights, scope.base))
        chosen = set(chain[-1])
    P, C = inst.int_profit, inst.int_cost
    free = [e for e in scope.ids if C[e] == 0 and e not in chosen]
    free.sort(key=lambda e: (-P[e], e))
    state = scope.base | c.state_of(chosen)
    for e in free:
        nxt = c.extend(state, e)
        if nxt is not None:
            chosen.add(e)
            state = nxt
    value = relaxation_value(inst, lam, weights, chosen)
    return frozenset(chosen), value, chain


MAX_PROBES = 64


def lagrangian_search(
    inst: BCInstance, scope: Scope | None = None
) -> LagrangianCertificate:
    """Bisection on λ over the scope's residual with a fixed budget of
    MAX_PROBES probes.

    The midpoint is the intersection of the two bracket lines when that
    is informative, which snaps onto exact breakpoints; otherwise the
    plain midpoint.  Tracks the probe count across all oracle calls.
    The chain of every probe is kept by λ, since a breakpoint can end
    the search at an earlier probe's λ, and the certificate carries the
    one at its lam.
    """
    scope = scope or whole(inst)
    C, budget = inst.int_cost, scope.budget
    probes = 0
    chains: dict[Fraction, tuple[frozenset[int], ...] | None] = {}

    def probe(lam: Fraction) -> tuple[frozenset[int], Fraction, int]:
        nonlocal probes
        probes += 1
        s, value, chains[lam] = relaxation_solve(inst, lam, scope)
        return s, value, sum(C[e] for e in s)

    zero = Fraction(0)
    s0, v0, c0 = probe(zero)
    if c0 <= budget:
        return LagrangianCertificate(
            lam=zero,
            lam_lo=zero,
            lam_hi=zero,
            s_minus=s0,
            s_plus=None,
            value=v0,
            probes=probes,
            chain=chains[zero],
        )
    # c0 > budget ≥ 0 implies some cost is positive
    min_cost = min(inst.cost[e] for e in scope.ids if C[e] > 0)
    lam_cap = (inst.profit_of(scope.ids) + 1) / min_cost
    s_hi, _, cost_hi = probe(lam_cap)
    if cost_hi > budget:
        raise InvariantError("relaxation at the lambda cap must be feasible")
    lam_lo, s_lo = zero, s0
    lam_hi = lam_cap

    def line_value(s: frozenset[int], lam: Fraction) -> Fraction:
        return inst.profit_of(s) - lam * inst.cost_of(s)

    while probes < MAX_PROBES:
        p_lo, c_lo = inst.profit_of(s_lo), inst.cost_of(s_lo)
        p_hi, c_hi = inst.profit_of(s_hi), inst.cost_of(s_hi)
        cross = (p_lo - p_hi) / (c_lo - c_hi)
        # bracket lines already meet at a probed λ, or the probe there
        # ties the lower line: an exact breakpoint
        if cross == lam_lo or cross == lam_hi:
            lam_lo = lam_hi = cross
            break
        s_mid, v_mid, cost_mid = probe(cross)
        if v_mid == line_value(s_lo, cross):
            lam_lo = lam_hi = cross
            break
        if cost_mid <= budget:
            lam_hi, s_hi = cross, s_mid
        else:
            lam_lo, s_lo = cross, s_mid
    return LagrangianCertificate(
        lam=lam_hi,
        lam_lo=lam_lo,
        lam_hi=lam_hi,
        s_minus=s_hi,
        s_plus=s_lo,
        value=line_value(s_hi, lam_hi),
        probes=probes,
        chain=chains[lam_hi],
    )


def _orientations(graph, comp: list[int]) -> list[list[int]]:
    """Edge sequences tracing the component (a path or a cycle in the
    symmetric difference of two matchings: max degree 2)."""
    adj: dict[int, list[int]] = {}
    for e in comp:
        u, v = graph.edge_ends[e]
        adj.setdefault(u, []).append(e)
        adj.setdefault(v, []).append(e)
    ends = sorted(v for v, es in adj.items() if len(es) == 1)

    def walk(start_vertex: int, first_edge: int) -> list[int]:
        seq = [first_edge]
        used = {first_edge}
        u, v = graph.edge_ends[first_edge]
        at = v if u == start_vertex else u
        while True:
            nxt = [e for e in adj[at] if e not in used]
            if not nxt:
                return seq
            e = nxt[0]
            seq.append(e)
            used.add(e)
            u, v = graph.edge_ends[e]
            at = v if u == at else u

    if ends:  # path: one walk from each endpoint
        return [walk(sv, adj[sv][0]) for sv in ends]
    # cycle: every rotation in both directions
    return [walk(end, e) for e in sorted(comp) for end in graph.edge_ends[e]]


def patch_matching(
    inst: BCInstance, cert: LagrangianCertificate, scope: Scope | None = None
) -> Solution:
    """Combine the two bracket matchings into the best set that solves
    the scope's residual.

    Swaps whole components of s_minus △ s_plus in ascending cost-delta
    order while the budget holds; the component that first crosses the
    budget is walked edge-by-edge (every traversal order), recording
    every prefix that is still a matching within budget.  Returns the
    best set seen anywhere in the process.
    """
    if inst.constraint.kind != "matching":
        raise InputError("patch_matching requires a matching constraint")
    if cert.s_plus is None:
        return Solution.of(inst, cert.s_minus)
    scope = scope or whole(inst)
    best = min(_key(inst, ()), _key(inst, cert.s_minus))
    if _fits(inst, scope, cert.s_plus):
        best = min(best, _key(inst, cert.s_plus))
    graph = inst.constraint.graph
    diff = sorted(cert.s_minus ^ cert.s_plus)
    comps = connected_components_edges(graph, diff)

    C, budget = inst.int_cost, scope.budget

    def delta_cost(comp: list[int]) -> int:
        gain = sum(C[e] for e in comp if e in cert.s_plus)
        return gain - sum(C[e] for e in comp if e in cert.s_minus)

    comps.sort(key=lambda comp: (delta_cost(comp), comp[0]))
    current = set(cert.s_minus)
    cur_cost = sum(C[e] for e in current)
    for comp in comps:
        dc = delta_cost(comp)
        if cur_cost + dc <= budget:
            current ^= set(comp)
            cur_cost += dc
            best = min(best, _key(inst, current))
            continue
        # first budget-crossing component: edge-by-edge prefix walk
        for seq in _orientations(graph, comp):
            state = set(current)
            for e in seq:
                state ^= {e}
                if _fits(inst, scope, state):
                    best = min(best, _key(inst, state))
        break
    return _winner(inst, scope, best, "patch_matching")


def patch_intersection(
    inst: BCInstance, cert: LagrangianCertificate, scope: Scope | None = None
) -> Solution:
    """Best-effort patching for matroid-intersection constraints.

    Candidates: s_minus itself; s_plus when it solves the scope's
    residual; s_minus greedily extended by elements of s_plus \\ s_minus
    in descending profit while common independence and the budget hold;
    and every budget-feasible set of the per-size optimal chain at the
    certificate's λ, the one the certificate carries when it has one.
    The contract inequality is enforced by the corpus tests, not
    claimed.
    """
    if inst.constraint.kind != "matroid_intersection":
        raise InputError("patch_intersection requires an intersection constraint")
    if cert.s_plus is None:
        return Solution.of(inst, cert.s_minus)
    scope = scope or whole(inst)
    best = min(_key(inst, ()), _key(inst, cert.s_minus))
    if _fits(inst, scope, cert.s_plus):
        best = min(best, _key(inst, cert.s_plus))
    c = inst.constraint
    P, C = inst.int_profit, inst.int_cost
    chosen = set(cert.s_minus)
    state = scope.base | c.state_of(chosen)
    cur_cost = sum(C[e] for e in chosen)
    for e in sorted(cert.s_plus - cert.s_minus, key=lambda e: (-P[e], e)):
        if cur_cost + C[e] > scope.budget:
            continue
        nxt = c.extend(state, e)
        if nxt is not None:
            chosen.add(e)
            state = nxt
            cur_cost += C[e]
    best = min(best, _key(inst, chosen))
    chain = cert.chain
    if chain is None:
        weights = relaxation_weights(inst, cert.lam, scope.ids)
        chain = mi_extreme_chain(c.m1, c.m2, weights, scope.base)
    for link in chain:
        if _fits(inst, scope, link):
            best = min(best, _key(inst, link))
    return _winner(inst, scope, best, "patch_intersection")


STRATEGIES = ("auto", "exhaustive", "lagrangian")


def choose_strategy(strategy: str, n: int, max_exhaustive: int) -> str:
    """The strategy that solves an n-element residual: auto is
    exhaustive when n fits the gate, else lagrangian."""
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        return "exhaustive" if n <= max_exhaustive else "lagrangian"
    return strategy


def residual_tail(
    inst: BCInstance,
    pinned: Sequence[int],
    pool: Sequence[int],
    strategy: str = "auto",
    max_exhaustive: int = 24,
) -> tuple[int, ...]:
    """Sorted ids of a set T with p(T) ≥ OPT − 2·max p(e) on the residual
    of F = pinned over pool: T ∪ F is feasible and c(T) ≤ β − c(F).

    pinned is a solution of inst and pool ascending ids of inst; neither
    is checked, so callers check F ∪ tail (`repset.checked_key`).  The
    residual keeps the pool's `survivors` of F, n of them, and is solved
    in place from F's walk state: exhaustively (exact, gated at
    max_exhaustive) or by Lagrangian search and patching; auto picks by
    `choose_strategy`.
    """
    c = inst.constraint
    base = c.state_of(pinned)
    keep = c.survivors(base, pool)
    n = len(keep)
    strategy = choose_strategy(strategy, n, max_exhaustive)
    if n == 0:
        return ()
    budget = inst.int_budget - sum(inst.int_cost[e] for e in pinned)
    if strategy == "exhaustive":
        if n > max_exhaustive:
            raise CapacityError(
                f"brute force over {n} elements (bound {max_exhaustive})"
            )
        return exhaustive_search(inst, keep, base, budget)[1]
    scope = Scope(base, tuple(keep), budget)
    cert = lagrangian_search(inst, scope)
    patch = patch_matching if c.kind == "matching" else patch_intersection
    return patch(inst, cert, scope).ids


def non_profitable_solve(
    inst: BCInstance,
    strategy: str = "auto",
    max_exhaustive: int = 24,
) -> Solution:
    """Solution with p(S) ≥ OPT − 2·max p(e): the residual tail of the
    empty set over every element (see `residual_tail`)."""
    tail = residual_tail(inst, (), inst.ids, strategy, max_exhaustive)
    return Solution.of(inst, tail)

"""Core problem model: budgeted instances over a matching or
matroid-intersection constraint, scheme parameters and profit classes.

Both constraint classes derive from `Constraint`, which holds once the
step rule every walk and residual uses and the profit `bound` that lets
the scheme skip a residual solve.

Arithmetic runs on integers: an instance scales its profits, and its
costs with its budget, to integers once.  A residual is no instance of
its own: it is a `Scope` (`BCInstance.residual`), solved in place on
its parent's tables (see `Constraint`).  Only this module knows the
scale factors; other modules compare the integers and get `Fraction`
values back from here, the API and report boundary.  Nothing touches
floats.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DegenerateAlpha, InputError
from .graphs import Graph, _is_int
from .matroids import ExplicitMatroid, Matroid


def _rat(x: Fraction | int) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InputError(f"expected an exact rational, got {x!r}")
    return Fraction(x)


def _scaled(x: Fraction, scale: int) -> int:
    """x · scale for a scale that x's denominator divides."""
    return x.numerator * (scale // x.denominator)


@dataclass(frozen=True)
class Element:
    id: int
    profit: Fraction
    cost: Fraction


class Constraint:
    """What every walk and residual asks of its constraint.

    state_of(F) is the walk state of a feasible set F, extend(state, e)
    the state of F + e or None when F + e is infeasible, join(state,
    mask) the same for F ∪ S with S given by its element mask,
    survivors(state, pool) the pool elements a residual of F keeps,
    those whose footprint[e] misses the state, room(state) an upper
    bound on |S| for every S that join accepts, and bound(...) one on
    p(S) for those S within a budget.  A state is a bit mask, and the
    state of a feasible F ∪ S is state_of(F) | state_of(S).

    The residual of F over a pool is solved in place as the triple
    (state_of(F), survivors, β − c(F)), a `Scope`, on the instance's own
    tables: a set S of survivors solves it when join(state_of(F), S) is
    not None and c(S) fits the reduced budget, and then F ∪ S solves
    the instance; both non-profitable solvers take it.

    A subclass sets kind, footprint and the ground set, and defines
    extend and room."""

    kind: str
    footprint: dict[int, int]
    ground: frozenset[int]
    ground_list: tuple[int, ...]
    ground_mask: int

    def feasible_mask(self, mask: int) -> bool:
        if mask & ~self.ground_mask:
            raise InputError("mask has bits outside the ground set")
        return self.join(0, mask) is not None

    def state_of(self, pinned: Iterable[int]) -> int:
        fp = self.footprint
        state = 0
        for e in pinned:
            state |= fp[e]
        return state

    def join(self, state: int, mask: int) -> int | None:
        while mask:
            low = mask & -mask
            mask ^= low
            state = self.extend(state, low.bit_length() - 1)
            if state is None:
                return None
        return state

    def survivors(self, state: int, pool: Iterable[int]) -> list[int]:
        """Pool elements whose footprint misses the state.  An element
        that F + e still cannot hold may stay; `extend` refuses it."""
        fp = self.footprint
        return [e for e in pool if not fp[e] & state]

    def bound(
        self,
        state: int,
        desc: Sequence[int],
        profit: Sequence[int],
        cost: Sequence[int],
        budget: int,
        need: int | None = None,
    ) -> int:
        """An upper bound on p(T) over the sets T of pool elements that
        extend a feasible F of walk state `state` within `budget` (β −
        c(F) on the integer cost scale), so on every tail
        `residual_tail` returns for F over that pool.  profit and cost
        are the instance's integer tables.

        desc is the pool in (profit desc, id asc) order.  The bound sums
        the profits of the first `room(state)` of its `survivors` whose
        own cost fits the budget: T holds at most that many survivors,
        each no dearer than the whole of T.  The scan tests each
        element's `footprint` against the state instead of listing the
        survivors, and stops once it has taken room(state) of them; with
        need, it stops once the sum reaches need, so only a result below
        need is the bound itself.

        `oracles.exhaustive_search` bounds its walk by the same room
        rule but does not call this: it asks a bound at every sibling
        over the suffix pool[j:], from a top-k table built once per
        search, and must never step more sets than the suffix-sum walk
        does.  A bound taken once per node over the whole pool cannot
        promise that."""
        left = self.room(state)
        if left <= 0 or (need is not None and need <= 0):
            return 0
        fp = self.footprint
        total = 0
        for e in desc:
            if not fp[e] & state and cost[e] <= budget:
                total += profit[e]
                left -= 1
                if not left or (need is not None and total >= need):
                    break
        return total


class Scope(NamedTuple):
    """The residual of a pinned set F, solved in place: F's walk state,
    the ascending ids of the elements it keeps, and its budget β − c(F)
    on the instance's integer cost scale."""

    base: int
    ids: tuple[int, ...]
    budget: int


class MatchingConstraint(Constraint):
    """Feasible sets are matchings of the underlying graph; the ground
    set is the graph's edge ids.  A walk state is the mask of the
    vertices the set covers, and an edge's footprint the mask of its
    two ends."""

    kind = "matching"

    def __init__(self, graph: Graph):
        self.graph = graph
        self.footprint = graph._vmask
        self.ground_list = graph.edge_ids
        self.ground = frozenset(self.ground_list)
        self.ground_mask = sum(1 << e for e in self.ground_list)

    def extend(self, state: int, e: int) -> int | None:
        m = self.footprint[e]
        return None if state & m else state | m

    def room(self, state: int) -> int:
        """Edges a matching can still add: two uncovered vertices each."""
        return (self.graph.num_vertices - state.bit_count()) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingConstraint):
            return NotImplemented
        return self.graph == other.graph

    def __repr__(self) -> str:
        return f"MatchingConstraint({self.graph!r})"


class MatroidIntersectionConstraint(Constraint):
    """Feasible sets are common independent sets of two matroids over
    the same ground set.  A walk state is the set's element mask, and
    an element's footprint its own bit.  A raw-table `ExplicitMatroid`
    must be hereditary, since every walk prunes a set's supersets once
    the set is infeasible."""

    kind = "matroid_intersection"

    def __init__(self, m1: Matroid, m2: Matroid):
        if m1.ground != m2.ground:
            raise InputError("the two matroids must share a ground set")
        for m in (m1, m2):
            if isinstance(m, ExplicitMatroid) and not m.hereditary():
                raise InputError("an explicit independence table is not hereditary")
        self.m1 = m1
        self.m2 = m2
        self.ground = m1.ground
        self.ground_list = m1.ground_list
        self.ground_mask = m1.ground_mask
        self.footprint = {e: 1 << e for e in self.ground_list}
        self._rank: int | None = None

    def extend(self, state: int, e: int) -> int | None:
        cand = state | (1 << e)
        if self.m1.independent_mask(cand) and self.m2.independent_mask(cand):
            return cand
        return None

    def join(self, state: int, mask: int) -> int | None:
        cand = state | mask
        if self.m1.independent_mask(cand) and self.m2.independent_mask(cand):
            return cand
        return None

    def room(self, state: int) -> int:
        """Elements a common independent set can still add: the smaller
        largest independent set size, found on the first call, less the
        set's own size."""
        if self._rank is None:
            self._rank = min(self.m1.full_rank(), self.m2.full_rank())
        return self._rank - state.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatroidIntersectionConstraint):
            return NotImplemented
        return self.m1 == other.m1 and self.m2 == other.m2

    def __repr__(self) -> str:
        return f"MatroidIntersectionConstraint({self.m1!r}, {self.m2!r})"


class BCInstance:
    """A budgeted constrained instance (E, C, c, p, β) with element ids
    0..n-1.

    The integer tables are indexed by element id: int_profit[e] and
    int_cost[e] are p(e) and c(e) times the least common denominator of
    the profits and of the costs and budget, and int_budget is β on the
    cost scale.
    """

    def __init__(
        self,
        elements: Iterable[Element],
        constraint: Constraint,
        budget: Fraction | int,
    ):
        # an Element already holding exact Fractions is kept as it is
        elements = tuple(
            e if type(e) is Element and type(e.profit) is Fraction
            and type(e.cost) is Fraction
            else Element(e.id, _rat(e.profit), _rat(e.cost))
            for e in sorted(elements, key=lambda e: e.id)
        )
        ids = [e.id for e in elements]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate element ids")
        for e in elements:
            if not _is_int(e.id) or e.id < 0:
                raise InputError(f"bad element id: {e.id!r}")
            # a Fraction's sign is its numerator's
            if e.profit.numerator < 0:
                raise InputError(f"element {e.id}: negative profit")
            if e.cost.numerator < 0:
                raise InputError(f"element {e.id}: negative cost")
        if ids != list(range(len(ids))):
            raise InputError("element ids must be 0..n-1")
        if frozenset(ids) != constraint.ground:
            raise InputError("constraint ground set must equal the element ids")
        budget = _rat(budget)
        if budget < 0:
            raise InputError("budget must be nonnegative")
        sp = math.lcm(1, *(e.profit.denominator for e in elements))
        sc = math.lcm(budget.denominator, *(e.cost.denominator for e in elements))
        self._sp, self._sc = sp, sc
        self.int_profit = tuple(_scaled(e.profit, sp) for e in elements)
        self.int_cost = tuple(_scaled(e.cost, sc) for e in elements)
        self.elements = elements
        self.constraint = constraint
        self.int_budget = _scaled(budget, sc)
        self.budget = budget
        self.ids: tuple[int, ...] = tuple(e.id for e in elements)
        self.id_set: frozenset[int] = frozenset(self.ids)
        self.profit: dict[int, Fraction] = {e.id: e.profit for e in elements}
        self.cost: dict[int, Fraction] = {e.id: e.cost for e in elements}
        self._cache: dict = {}

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def max_profit(self) -> Fraction:
        return max((e.profit for e in self.elements), default=Fraction(0))

    def _table_sum(self, table: tuple[int, ...], ids: tuple[int, ...]) -> int:
        # an unknown id may still index the table (negative ids do): check first
        if not self.id_set.issuperset(ids):
            unknown = [e for e in ids if e not in self.id_set]
            raise InputError(f"unknown element ids: {unknown}")
        return sum(table[e] for e in ids)

    def profit_of(self, ids: Iterable[int]) -> Fraction:
        return Fraction(self._table_sum(self.int_profit, tuple(ids)), self._sp)

    def cost_of(self, ids: Iterable[int]) -> Fraction:
        return Fraction(self._table_sum(self.int_cost, tuple(ids)), self._sc)

    def mask_of(self, ids: Iterable[int]) -> int:
        m = 0
        for e in ids:
            if e not in self.id_set:
                raise InputError(f"unknown element id: {e!r}")
            m |= 1 << e
        return m

    def key_of(self, ids: Iterable[int]) -> tuple[int, tuple[int, ...]]:
        """The candidate key (−p, sorted ids) on the integer profit scale,
        the order of `Solution.key`: the smaller key wins."""
        ids = tuple(sorted(ids))
        return -sum([self.int_profit[e] for e in ids]), ids

    def residual(self, state: int, cost: int, pool: Iterable[int]) -> Scope:
        """The `Scope` of a pinned set F over ascending pool ids, from F's
        walk state and integer cost as `oracles.iter_solutions` yields them."""
        keep = tuple(self.constraint.survivors(state, pool))
        return Scope(state, keep, self.int_budget - cost)

    def constraint_ok(self, ids: Iterable[int]) -> bool:
        return self.constraint.feasible_mask(self.mask_of(ids))

    def is_solution(self, ids: Iterable[int]) -> bool:
        ids = tuple(ids)
        return self.constraint_ok(ids) and (
            self._table_sum(self.int_cost, ids) <= self.int_budget
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BCInstance):
            return NotImplemented
        return (
            self.elements == other.elements
            and self.budget == other.budget
            and self.constraint == other.constraint
        )

    def __repr__(self) -> str:
        return (
            f"BCInstance(n={self.n}, kind={self.constraint.kind}, "
            f"budget={self.budget})"
        )


def whole(inst: BCInstance) -> Scope:
    """The scope of F = ∅: every element, the full budget."""
    return Scope(inst.constraint.state_of(()), inst.ids, inst.int_budget)


def feasible(inst: BCInstance, ids: Iterable[int]) -> bool:
    """True iff the set is in M(C) and fits the budget."""
    return inst.is_solution(ids)


@dataclass(frozen=True)
class Solution:
    ids: tuple[int, ...]
    profit: Fraction
    cost: Fraction
    feasible: bool

    @staticmethod
    def of(inst: BCInstance, ids: Iterable[int]) -> "Solution":
        ids = tuple(sorted(set(ids)))
        cost = inst._table_sum(inst.int_cost, ids)
        return Solution(
            ids,
            inst.profit_of(ids),
            Fraction(cost, inst._sc),
            inst.constraint_ok(ids) and cost <= inst.int_budget,
        )

    def key(self) -> tuple:
        """Sort key for the deterministic (profit desc, lexicographically
        smallest id tuple asc) order; smaller key wins."""
        return (-self.profit, self.ids)


@dataclass(frozen=True)
class SchemeParams:
    epsilon: Fraction
    q_nominal: int
    q_eff: int
    k_eff: int
    n_cap: int
    class_count: int


def _check_epsilon(eps: Fraction | int) -> Fraction:
    eps = _rat(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise InputError(f"epsilon must be in (0, 1/2], got {eps}")
    return eps


def q_of(eps: Fraction) -> int:
    """⌈ε^(−1/ε)⌉ computed exactly: the least m with m^a·a^b ≥ b^b for
    ε = a/b in lowest terms."""
    a, b = eps.numerator, eps.denominator
    target = b**b
    scale = a**b

    def ok(m: int) -> bool:
        return m**a * scale >= target

    hi = 1
    while not ok(hi):
        hi *= 2
    if hi == 1:
        return 1
    lo = hi // 2  # fails ok() by construction
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def class_count_of(eps: Fraction) -> int:
    """⌊log_{1−ε}(ε/2)⌋ + 1 = max{k : (1−ε)^k ≥ ε/2} + 1, exactly.

    For ε = a/b, (1−ε)^k = num/den with num = (b−a)^k and den = b^k, and
    (1−ε)^(k+1) ≥ ε/2 reads 2·num·(b−a) ≥ a·den."""
    a, b = eps.numerator, eps.denominator
    num = den = 1
    k = 0
    while 2 * num * (b - a) >= a * den:
        num *= b - a
        den *= b
        k += 1
    return k + 1


@functools.lru_cache(maxsize=64)
def _eps_counts(eps: Fraction) -> tuple[int, int]:
    """(q_of(ε), class_count_of(ε)) for a checked ε, computed once."""
    return q_of(eps), class_count_of(eps)


def scheme_params(inst: BCInstance, eps: Fraction | int) -> SchemeParams:
    eps = _check_epsilon(eps)
    q, count = _eps_counts(eps)
    q_eff = min(q, inst.n)
    k_eff = max(1, 6 * q_eff)
    if inst.constraint.kind == "matching":
        # no matching exceeds ⌊|V|/2⌋, so the cap keeps greedy maximal
        n_cap = min(3 * q_eff, inst.constraint.graph.num_vertices // 2 + 1)
    else:
        n_cap = min(3 * q_eff, inst.n)
    n_cap = max(1, n_cap)
    return SchemeParams(
        epsilon=eps,
        q_nominal=q,
        q_eff=q_eff,
        k_eff=k_eff,
        n_cap=n_cap,
        class_count=count,
    )


@dataclass(frozen=True)
class ProfitClassing:
    alpha: Fraction
    epsilon: Fraction
    classes: dict[int, tuple[int, ...]]

    def class_of(self, element_id: int) -> int | None:
        for r, members in self.classes.items():
            if element_id in members:
                return r
        return None


def profit_classes(
    inst: BCInstance, eps: Fraction | int, alpha: Fraction | int
) -> ProfitClassing:
    """Partition the profitable elements into geometric profit bands:
    class r holds {e : p(e)/(2α) ∈ ((1−ε)^r, (1−ε)^{r−1}]} intersected
    with {e : p(e) > εα}."""
    eps = _check_epsilon(eps)
    alpha = _rat(alpha)
    if alpha < 0:
        raise InputError("alpha must be nonnegative")
    if alpha == 0:
        raise DegenerateAlpha("alpha = 0: profit classes undefined")
    _, count = _eps_counts(eps)
    # integer profits: p ≤ t exactly when the scaled p ≤ ⌊t scaled⌋, so
    # class r is E[r] < p ≤ E[r−1] for the band edges E[r] = ⌊2α(1−ε)^r
    # scaled⌋, kept negated to bisect ascending.  The edges come from
    # running products and stop at the first below the least profit
    # past the cut: no element that passes the cut needs a later one.
    a, b = eps.numerator, eps.denominator
    top = 2 * alpha * inst._sp
    cut = math.floor(eps * alpha * inst._sp)
    P = inst.int_profit
    least = min([p for p in P if p > cut], default=None)
    edges: list[int] = []
    num, den = top.numerator, top.denominator
    while least is not None and len(edges) <= count:
        edge = num // den
        edges.append(-edge)
        if edge < least:
            break
        num *= b - a
        den *= b
    classes: dict[int, list[int]] = {}
    for e in inst.ids:
        p = P[e]
        if p > cut:
            r = bisect_right(edges, -p)  # the least r with E[r] < p
            if 1 <= r <= count:
                classes.setdefault(r, []).append(e)
    return ProfitClassing(
        alpha=alpha,
        epsilon=eps,
        classes={r: tuple(sorted(v)) for r, v in sorted(classes.items())},
    )


def low_profit_ids(
    inst: BCInstance, eps: Fraction | int, alpha: Fraction | int
) -> tuple[int, ...]:
    """E(α): elements with p(e) ≤ 2εα."""
    eps = _check_epsilon(eps)
    # integer profits: p ≤ t exactly when the scaled p ≤ ⌊t scaled⌋
    cut = math.floor(2 * eps * _rat(alpha) * inst._sp)
    return tuple(e for e in inst.ids if inst.int_profit[e] <= cut)


def relaxation_weights(
    inst: BCInstance, lam: Fraction | int, ids: Iterable[int] | None = None
) -> dict[int, int]:
    """Integer weights k·(p(e) − λ·c(e)) for the given elements (default:
    all), with one positive k per instance and λ, so they order sets as
    p − λc does: p·sc·λ.den − λ.num·c·sp on the scaled tables."""
    ps = inst._sc * lam.denominator
    cs = lam.numerator * inst._sp
    P, C = inst.int_profit, inst.int_cost
    return {e: P[e] * ps - C[e] * cs for e in (inst.ids if ids is None else ids)}


def relaxation_value(
    inst: BCInstance, lam: Fraction | int, weights: Mapping[int, int], ids: Iterable[int]
) -> Fraction:
    """p(S) − λ·c(S) for S = ids, from their `relaxation_weights` at λ."""
    return Fraction(sum([weights[e] for e in ids]), inst._sp * inst._sc * lam.denominator)

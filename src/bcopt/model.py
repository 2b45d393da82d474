"""Core problem model: budgeted instances over a matching or
matroid-intersection constraint, scheme parameters, profit classes, and
residual instances.

Arithmetic runs on integers: a top-level instance scales its profits,
and its costs with its budget, to integers once, and its residuals share
those tables.  Only this module knows the scale factors; other modules
compare the integers and get `Fraction` values back from here, the API
and report boundary.  Nothing touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DegenerateAlpha, InputError
from .graphs import Graph
from .matroids import Matroid
from .matroids import restrict as matroid_restrict
from .matroids import thin as matroid_thin


def _rat(x: Fraction | int) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InputError(f"expected an exact rational, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class Element:
    id: int
    profit: Fraction
    cost: Fraction


class MatchingConstraint:
    """Feasible sets are matchings of the underlying graph; the ground
    set is the graph's edge ids.  A walk state is the mask of the
    vertices the set covers."""

    kind = "matching"

    def __init__(self, graph: Graph):
        self.graph = graph
        self._vm = graph._vmask
        self.ground_list = graph.edge_ids
        self.ground = frozenset(self.ground_list)
        self.ground_mask = sum(1 << e for e in self.ground_list)

    def feasible_mask(self, mask: int) -> bool:
        if mask & ~self.ground_mask:
            raise InputError("mask has bits outside the ground set")
        state = 0
        while mask:
            low = mask & -mask
            mask ^= low
            state = self.extend(state, low.bit_length() - 1)
            if state is None:
                return False
        return True

    def state_of(self, pinned: Iterable[int]) -> int:
        return self.graph.vertex_mask(pinned)

    def extend(self, state: int, e: int) -> int | None:
        m = self._vm[e]
        return None if state & m else state | m

    def survivors(self, state: int, pool: Iterable[int]) -> list[int]:
        """Pool edges that touch no covered vertex."""
        vm = self._vm
        return [e for e in pool if not vm[e] & state]

    def derive(self, pinned: Iterable[int], keep: Iterable[int]) -> "MatchingConstraint":
        return MatchingConstraint(self.graph.restrict(keep))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingConstraint):
            return NotImplemented
        return self.graph == other.graph

    def __repr__(self) -> str:
        return f"MatchingConstraint({self.graph!r})"


class MatroidIntersectionConstraint:
    """Feasible sets are common independent sets of two matroids over
    the same ground set.  A walk state is the set's element mask."""

    kind = "matroid_intersection"

    def __init__(self, m1: Matroid, m2: Matroid):
        if m1.ground != m2.ground:
            raise InputError("the two matroids must share a ground set")
        self.m1 = m1
        self.m2 = m2
        self.ground = m1.ground
        self.ground_list = m1.ground_list
        self.ground_mask = m1.ground_mask

    def feasible_mask(self, mask: int) -> bool:
        return self.m1.independent_mask(mask) and self.m2.independent_mask(mask)

    def state_of(self, pinned: Iterable[int]) -> int:
        return sum(1 << e for e in set(pinned))

    def extend(self, state: int, e: int) -> int | None:
        cand = state | (1 << e)
        if self.m1.independent_mask(cand) and self.m2.independent_mask(cand):
            return cand
        return None

    def survivors(self, state: int, pool: Iterable[int]) -> list[int]:
        """Pool elements outside the set.  Elements dependent with it
        stay, as thinning keeps them; `extend` refuses them."""
        return [e for e in pool if not state >> e & 1]

    def derive(
        self, pinned: Iterable[int], keep: Iterable[int]
    ) -> "MatroidIntersectionConstraint":
        pinned = tuple(pinned)
        keep = tuple(keep)
        return MatroidIntersectionConstraint(
            matroid_restrict(matroid_thin(self.m1, pinned), keep),
            matroid_restrict(matroid_thin(self.m2, pinned), keep),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatroidIntersectionConstraint):
            return NotImplemented
        return self.m1 == other.m1 and self.m2 == other.m2

    def __repr__(self) -> str:
        return f"MatroidIntersectionConstraint({self.m1!r}, {self.m2!r})"


# Every walk and residual steps a constraint the same way.  state_of(F)
# is the walk state of a feasible set F, extend(state, e) the state of
# F + e or None when F + e is infeasible, survivors(state, pool) the
# pool elements a residual of F keeps, and derive(F, survivors) the
# residual's own constraint.
Constraint = MatchingConstraint | MatroidIntersectionConstraint


class BCInstance:
    """A budgeted constrained instance (E, C, c, p, β) with element ids
    0..n-1.

    The integer tables are indexed by element id: int_profit[e] and
    int_cost[e] are p(e) and c(e) times the least common denominator of
    the profits and of the costs and budget, and int_budget is β on the
    cost scale.  A residual (built by `residual_over`, derived = True)
    keeps its parent's ids, Element objects, tables and scales, so its
    integers compare directly with its parent's.
    """

    derived = False

    def __init__(
        self,
        elements: Iterable[Element],
        constraint: Constraint,
        budget: Fraction | int,
    ):
        elements = tuple(
            Element(e.id, _rat(e.profit), _rat(e.cost))
            for e in sorted(elements, key=lambda e: e.id)
        )
        ids = [e.id for e in elements]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate element ids")
        for e in elements:
            if not isinstance(e.id, int) or e.id < 0:
                raise InputError(f"bad element id: {e.id!r}")
            if e.profit < 0:
                raise InputError(f"element {e.id}: negative profit")
            if e.cost < 0:
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
        self.int_profit = tuple(int(e.profit * sp) for e in elements)
        self.int_cost = tuple(int(e.cost * sc) for e in elements)
        self._assign(elements, constraint, int(budget * sc))

    def _assign(
        self, elements: tuple[Element, ...], constraint: Constraint, int_budget: int
    ) -> None:
        self.elements = elements
        self.constraint = constraint
        self.int_budget = int_budget
        self.budget = Fraction(int_budget, self._sc)
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
        # the tables also hold the parent's other elements: check first
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


def better(a: Solution | None, b: Solution | None) -> Solution | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if a.key() <= b.key() else b


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


def scheme_params(inst: BCInstance, eps: Fraction | int) -> SchemeParams:
    eps = _check_epsilon(eps)
    q = q_of(eps)
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
        class_count=class_count_of(eps),
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
    count = class_count_of(eps)
    powers = [Fraction(1)]
    for _ in range(count):
        powers.append(powers[-1] * (1 - eps))
    cutoff = eps * alpha
    two_alpha = 2 * alpha
    classes: dict[int, list[int]] = {}
    for e in inst.elements:
        if e.profit <= cutoff:
            continue
        ratio = e.profit / two_alpha
        for r in range(1, count + 1):
            if powers[r] < ratio <= powers[r - 1]:
                classes.setdefault(r, []).append(e.id)
                break
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


def residual(
    inst: BCInstance,
    eps: Fraction | int,
    alpha: Fraction | int,
    pinned: Iterable[int],
) -> BCInstance:
    """Residual instance: ground E(α)\\F, constraint thinned by F,
    budget reduced by c(F).  Any solution T of the residual makes
    T ∪ F a solution of the parent."""
    pinned = tuple(sorted(set(pinned)))
    unknown = [e for e in pinned if e not in inst.id_set]
    if unknown:
        raise InputError(f"unknown element ids: {unknown}")
    if not inst.constraint_ok(pinned):
        raise InputError("pinned set violates the constraint")
    if inst.cost_of(pinned) > inst.budget:
        raise InputError("pinned set exceeds the budget")
    return residual_over(inst, pinned, low_profit_ids(inst, eps, alpha))


def residual_over(
    inst: BCInstance, pinned: tuple[int, ...], pool: Iterable[int]
) -> BCInstance:
    """Residual of a solution F of inst over a ground pool: elements of
    pool \\ F that survive the constraint thinned by F, budget β − c(F).

    F must be a sorted solution of inst and is not checked again:
    enumerated prefixes are feasible and within budget by construction,
    and `residual` checks everyone else's.  The residual shares inst's
    validated elements, integer tables and scales; nothing is validated
    or rescaled again."""
    c = inst.constraint
    sub_constraint = c.derive(pinned, c.survivors(c.state_of(pinned), pool))
    kept_ids = sub_constraint.ground
    sub = object.__new__(BCInstance)
    sub._sp, sub._sc = inst._sp, inst._sc
    sub.int_profit, sub.int_cost = inst.int_profit, inst.int_cost
    sub.derived = True
    sub._assign(
        tuple(e for e in inst.elements if e.id in kept_ids),
        sub_constraint,
        inst.int_budget - sum(inst.int_cost[e] for e in pinned),
    )
    return sub


def relaxation_weights(inst: BCInstance, lam: Fraction | int) -> dict[int, int]:
    """Integer weights k·(p(e) − λ·c(e)) for every element, with one
    positive k per instance and λ, so they order sets as p − λc does:
    p·sc·λ.den − λ.num·c·sp on the scaled tables."""
    ps = inst._sc * lam.denominator
    cs = lam.numerator * inst._sp
    P, C = inst.int_profit, inst.int_cost
    return {e: P[e] * ps - C[e] * cs for e in inst.ids}

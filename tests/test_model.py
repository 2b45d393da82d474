import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcopt as B
from bcopt.errors import DegenerateAlpha, InputError, InvariantError
from bcopt.repset import checked_key
from util import walk_ids

STRATEGIES = ("auto", "exhaustive", "lagrangian")


def make_bm(profits, costs, budget, ends, num_vertices=None):
    nv = num_vertices or (max(v for uv in ends.values() for v in uv) + 1)
    g = B.Graph(nv, ends)
    els = [B.Element(i, F(p), F(c)) for i, (p, c) in enumerate(zip(profits, costs))]
    return B.BCInstance(els, B.MatchingConstraint(g), F(budget))


def test_element_validation():
    g = B.Graph(2, {0: (0, 1)})
    with pytest.raises(InputError):
        B.BCInstance([B.Element(0, F(-1), F(1))], B.MatchingConstraint(g), F(1))
    with pytest.raises(InputError):
        B.BCInstance([B.Element(0, F(1), F(-1))], B.MatchingConstraint(g), F(1))
    with pytest.raises(InputError):
        B.BCInstance([B.Element(0, 0.5, F(1))], B.MatchingConstraint(g), F(1))
    with pytest.raises(InputError):
        B.BCInstance([B.Element(0, F(1), F(1))], B.MatchingConstraint(g), F(-1))
    # ids must be 0..n-1 for top-level instances
    with pytest.raises(InputError):
        B.BCInstance([B.Element(1, F(1), F(1))], B.MatchingConstraint(g), F(1))


def test_feasible_includes_budget(fig1):
    assert B.feasible(fig1, [0, 2])
    assert not B.feasible(fig1, [0, 1])      # edges share vertex 1
    assert B.feasible(fig1, [])
    heavy = B.BCInstance(fig1.elements, fig1.constraint, F(1))
    assert not B.feasible(heavy, [0, 2])     # matching but over budget


def test_q_exact_values():
    assert B.q_of(F(1, 2)) == 4
    assert B.q_of(F(1, 3)) == 27
    assert B.q_of(F(1, 4)) == 256
    assert B.q_of(F(1, 5)) == 3125
    assert B.q_of(F(2, 5)) == 10


@given(st.integers(min_value=2, max_value=7))
def test_q_unit_fractions(k):
    # (1/k)^(-k) = k^k exactly, so the ceiling is k^k itself
    assert B.q_of(F(1, k)) == k**k


def test_q_is_least_satisfying_value():
    for eps in (F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(1, 4)):
        a, b = eps.numerator, eps.denominator
        m = B.q_of(eps)
        assert m**a * a**b >= b**b
        assert m == 1 or (m - 1) ** a * a**b < b**b


def test_class_count_exact_values():
    assert B.class_count_of(F(1, 2)) == 3
    assert B.class_count_of(F(1, 3)) == 5
    assert B.class_count_of(F(1, 16)) == 54
    assert B.class_count_of(F(1, 24)) == 91
    assert B.class_count_of(F(2, 5)) == 4
    assert B.class_count_of(F(3, 7)) == 3
    assert B.class_count_of(F(1, 64)) == 309


def test_epsilon_range():
    inst = make_bm([1], [1], 1, {0: (0, 1)})
    with pytest.raises(InputError):
        B.scheme_params(inst, F(0))
    with pytest.raises(InputError):
        B.scheme_params(inst, F(2, 3))
    with pytest.raises(InputError):
        B.scheme_params(inst, F(-1, 2))
    assert B.scheme_params(inst, F(1, 2)).epsilon == F(1, 2)


def test_scheme_params_fig1(fig1):
    p = B.scheme_params(fig1, F(1, 2))
    assert p.q_nominal == 4
    assert p.q_eff == 4
    assert p.k_eff == 24
    assert p.n_cap == 3          # floor(5/2) + 1 for a 5-vertex graph
    assert p.class_count == 3


def test_scheme_params_caps():
    inst = make_bm([1, 1], [1, 1], 2, {0: (0, 1), 1: (2, 3)})
    p = B.scheme_params(inst, F(1, 3))
    assert p.q_nominal == 27
    assert p.q_eff == 2          # min(q, n)
    assert p.k_eff == 12
    # matroid intersection caps N at n
    m = B.UniformMatroid(range(2), 2)
    inst2 = B.BCInstance(
        [B.Element(0, F(1), F(1)), B.Element(1, F(1), F(1))],
        B.MatroidIntersectionConstraint(m, m),
        F(2),
    )
    assert B.scheme_params(inst2, F(1, 3)).n_cap == 2


def test_scheme_params_empty_instance_floors():
    g = B.Graph(1, {})
    inst = B.BCInstance([], B.MatchingConstraint(g), F(0))
    p = B.scheme_params(inst, F(1, 2))
    assert p.k_eff >= 1
    assert p.n_cap >= 1


def test_profit_classes_fig1(fig1):
    cl = B.profit_classes(fig1, F(1, 2), F(11))
    assert cl.classes == {2: (0, 1)}
    assert cl.class_of(0) == 2
    assert cl.class_of(2) is None
    cl3 = B.profit_classes(fig1, F(1, 3), F(11))
    assert cl3.classes == {2: (0, 1)}


def test_profit_classes_band_edges():
    # profit exactly 2*alpha lands in class 1; profit exactly eps*alpha is cut
    inst = make_bm([20, 5], [1, 1], 2, {0: (0, 1), 1: (2, 3)})
    cl = B.profit_classes(inst, F(1, 2), F(10))
    assert cl.class_of(0) == 1
    assert cl.class_of(1) is None


def test_profit_classes_degenerate_alpha(fig1):
    with pytest.raises(DegenerateAlpha):
        B.profit_classes(fig1, F(1, 2), F(0))
    with pytest.raises(InputError):
        B.profit_classes(fig1, F(1, 2), F(-1))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_profit_classes_partition_profitable(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    ends = {i: (2 * i, 2 * i + 1) for i in range(n)}
    profits = [rng.randint(0, 30) for _ in range(n)]
    inst = make_bm(profits, [1] * n, n, ends)
    eps = rng.choice([F(1, 2), F(1, 3), F(1, 5)])
    alpha = F(rng.randint(1, 40))
    cl = B.profit_classes(inst, eps, alpha)
    seen = set()
    for r, members in cl.classes.items():
        assert 1 <= r <= B.class_count_of(eps)
        for e in members:
            assert e not in seen
            seen.add(e)
            ratio = inst.profit[e] / (2 * alpha)
            assert (1 - eps) ** r < ratio <= (1 - eps) ** (r - 1)
    for e in inst.ids:
        in_range = eps * alpha < inst.profit[e] <= 2 * alpha
        assert (e in seen) == in_range


def test_low_profit_ids(fig1):
    assert B.low_profit_ids(fig1, F(1, 2), F(11)) == (0, 1, 2, 3)
    assert B.low_profit_ids(fig1, F(1, 2), F(4)) == (2, 3)
    assert B.low_profit_ids(fig1, F(1, 2), F(0)) == ()


def test_residual_matching(fig1):
    low = B.low_profit_ids(fig1, F(1, 2), F(4))
    c = fig1.constraint
    # pinning edge a covers its vertices 1 and 2, so b and d drop out;
    # only c survives of the low-profit edges {c, d}
    assert c.survivors(c.state_of([0]), low) == [2]
    for strategy in STRATEGIES:
        tail = B.residual_tail(fig1, (0,), low, strategy)
        assert tail == (2,)
        assert B.feasible(fig1, set(tail) | {0})


def test_residual_shares_the_parent_tables(fig1, monkeypatch):
    def no_rebuild(*args, **kwargs):
        raise AssertionError("a residual must not run BCInstance.__init__")

    monkeypatch.setattr(B.BCInstance, "__init__", no_rebuild)
    # residuals are solved on fig1's own tables under every strategy;
    # the tail's profit and cost come from them
    for strategy in STRATEGIES:
        tail = B.residual_tail(fig1, (0,), fig1.ids, strategy)
        assert tail == (2,)
        assert B.Solution.of(fig1, tail).profit == F(1)
    assert B.non_profitable_solve(fig1).ids == (0, 2)
    with pytest.raises(InputError):
        fig1.cost_of([9])


def test_derived_keyword_is_gone(fig1):
    with pytest.raises(TypeError):
        B.BCInstance(fig1.elements, fig1.constraint, fig1.budget, derived=True)


def test_residual_keeps_parent_ids(fig2):
    low = B.low_profit_ids(fig2, F(1, 2), F(8))
    c = fig2.constraint
    state = c.state_of([0])
    # element 1 shares the pinned element's partition block: it survives
    # with its own id, and no step from F's state takes it
    assert c.survivors(state, low) == [1, 2, 3]
    assert c.extend(state, 1) is None
    assert c.extend(state, 2) is not None
    for strategy in STRATEGIES:
        assert B.residual_tail(fig2, (0,), low, strategy) == (2,)


def test_residual_rejects_bad_pins(fig1):
    # residual_tail trusts its prefix; checked_key checks F ∪ tail whole
    assert checked_key(fig1, (0,), (2,)) == (-11, (0, 2))
    with pytest.raises(InvariantError):
        checked_key(fig1, (0, 1), ())                   # not a matching
    with pytest.raises(InputError):
        checked_key(fig1, (9,), ())                     # unknown id
    tight = B.BCInstance(fig1.elements, fig1.constraint, F(0))
    with pytest.raises(InvariantError):
        checked_key(tight, (0,), ())                    # over budget


def test_residual_solutions_lift(fig1, fig2):
    # a set S of survivors solves F's residual (join from F's state, cost
    # within β − c(F)) exactly when F ∪ S solves the instance
    for inst in (fig1, fig2):
        c = inst.constraint
        C = inst.int_cost
        for pin in walk_ids(inst):
            state = c.state_of(pin)
            budget = inst.int_budget - sum(C[e] for e in pin)
            kept = c.survivors(state, inst.ids)
            for k in range(len(kept) + 1):
                for s in itertools.combinations(kept, k):
                    fits = sum(C[e] for e in s) <= budget and (
                        c.join(state, inst.mask_of(s)) is not None
                    )
                    assert fits == B.feasible(inst, set(s) | set(pin)), (pin, s)


def test_solution_ordering():
    a = B.Solution(ids=(0, 2), profit=F(5), cost=F(2), feasible=True)
    b = B.Solution(ids=(1, 3), profit=F(5), cost=F(2), feasible=True)
    c = B.Solution(ids=(4,), profit=F(7), cost=F(1), feasible=True)
    # profit descending, then the lexicographically smallest ids
    assert a.key() < b.key()
    assert c.key() < a.key()
    assert min([b, a, c], key=B.Solution.key) is c
    assert sorted([c, b, a], key=B.Solution.key) == [c, a, b]

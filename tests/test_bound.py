"""The constraint's profit `bound` against the exact optimum it bounds:
for every prefix and pool that `two_approx` (a threshold pool) and
`eptas_run` (E(α), and R ∪ E(α) when it prunes) ask about, the bound is
at least `exhaustive_search`'s best tail over the pool's survivors.
Seeded BM and BI instances, each at its generator's budget and at a
binding one, β = ½·c(S₀) with S₀ the λ = 0 relaxation optimum; and a
hereditary family that is no matroid."""

from fractions import Fraction

import pytest

import bcopt as B
from bcopt.oracles import exhaustive_search
from util import bi_pairs


def table_instance():
    """A hereditary table that is no matroid, ∩ U(3): greedy by profit
    takes {0} and stops, while {1, 2} is the largest set."""
    m1 = B.ExplicitMatroid.from_table(range(3), [[], [0], [1], [2], [1, 2]])
    m2 = B.UniformMatroid(range(3), 3)
    els = [B.Element(0, 5, 2), B.Element(1, 4, 1), B.Element(2, 4, 1)]
    return B.BCInstance(els, B.MatroidIntersectionConstraint(m1, m2), 4)


CASES = [
    ("bm1", lambda: B.random_bm(1, n_vertices=8)),
    ("bm2", lambda: B.random_bm(2, n_vertices=9)),
    ("bi_pairs16", lambda: bi_pairs(3, 16)),
    ("bi_pairs24", lambda: bi_pairs(4, 24)),
    ("bi_graphic", lambda: B.random_bi(5, n=14, kinds=("graphic", "partition"))),
    ("bi_partition", lambda: B.random_bi(6, n=18, kinds=("partition", "graphic"))),
    ("table", table_instance),
]


def binding(inst):
    """inst with β = ½·c(S₀), which S₀ no longer fits."""
    s0 = B.relaxation_solve(inst, 0)[0]
    budget = inst.cost_of(s0) / 2
    assert budget > 0
    return B.BCInstance(inst.elements, inst.constraint, budget)


def asked(inst):
    """Every distinct (state, pool, budget) the two callers ask the
    bound about, in (profit desc, id) pool order, at ε = 1/4 and at
    the core ε of approximate(·, 1/2)."""
    c = inst.constraint
    seen = set()

    def record(state, desc, profit, cost, budget, need=None):
        seen.add((state, tuple(desc), budget))
        return type(c).bound(c, state, desc, profit, cost, budget, need)

    c.bound = record
    try:
        for eps in (Fraction(1, 4), Fraction(1, 16)):
            for prune in (False, True):
                B.eptas_run(inst, eps, prune=prune)
    finally:
        del c.bound
    return seen


@pytest.mark.parametrize("budget", ["default", "binding"])
@pytest.mark.parametrize("name,make", CASES, ids=[n for n, _ in CASES])
def test_bound_is_at_least_the_best_tail(name, make, budget):
    inst = make()
    assert inst.n <= 24
    if budget == "binding":
        inst = binding(inst)
    c = inst.constraint
    P, C = inst.int_profit, inst.int_cost
    calls = asked(inst)
    # two_approx asks at least the empty prefix's cut over every element
    assert len(calls) > 1
    for state, desc, left in calls:
        keep = sorted(c.survivors(state, desc))
        best = exhaustive_search(inst, keep, state, left)[0]
        assert c.bound(state, desc, P, C, left) >= best, (state, desc, left)

"""`oracles.exhaustive_search`, the exact search under every exhaustive
residual, against two references: every combination of the pool
(n ≤ 20), and the suffix-sum bound the search had before it read
`room` (n ≤ 28).  The instances are BM, BI and BI over a `from_table`
family that is no matroid, at budgets 1/10 to 1/2 of the total cost,
with and without a pinned set; profits are tie-heavy where ties are
likely, so the lexicographic tie-break is exercised."""

import itertools
import random
from fractions import Fraction

import pytest

import bcopt as B
from bcopt.model import Scope, whole
from bcopt.oracles import exhaustive_search
from util import bi_pairs, combination_search, reference_exhaustive_search, walk_ids

FRACS = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2))


def table_instance(seed, n):
    """BI over a `from_table` family ∩ U(n/3): the family is the
    downward closure of a few random sets of sizes 2..6, so it is
    hereditary but mostly breaks the exchange axiom; profits 1..4."""
    rng = random.Random(seed)
    tops = [rng.sample(range(n), rng.randint(2, 6)) for _ in range(6)]
    table = {frozenset(s) for t in tops for k in range(len(t) + 1)
             for s in itertools.combinations(t, k)}
    m1 = B.ExplicitMatroid.from_table(range(n), [sorted(s) for s in table])
    m2 = B.UniformMatroid(range(n), n // 3)
    els = [B.Element(i, rng.randint(1, 4), rng.randint(1, 20)) for i in range(n)]
    total = sum(e.cost for e in els)
    return B.BCInstance(els, B.MatroidIntersectionConstraint(m1, m2), Fraction(total, 2))


def pinned_sets(inst, seed):
    """(), and two feasible sets of one and two elements."""
    rng = random.Random(seed)
    walk = list(walk_ids(inst, max_size=2))
    ones = [f for f in walk if len(f) == 1]
    twos = [f for f in walk if len(f) == 2]
    return [()] + [rng.choice(fs) for fs in (ones, twos) if fs]


def budgets(inst):
    total = sum(inst.int_cost)
    return [int(total * f) for f in FRACS]


def searches(inst, seed):
    """(pinned, pool, base state) triples: each pinned set over its
    survivors of every element and of the even ids."""
    c = inst.constraint
    for pinned in pinned_sets(inst, seed):
        base = c.state_of(pinned)
        for pool in (inst.ids, [e for e in inst.ids if e % 2 == 0]):
            yield pinned, c.survivors(base, pool), base


SMALL = [
    ("bm7", lambda: B.random_bm(1, n_vertices=7)),
    ("bm8_ties", lambda: B.random_bm(2, n_vertices=8, profit_range=(1, 3))),
    ("bm9", lambda: B.random_bm(3, n_vertices=9)),
    ("bi_pairs16", lambda: bi_pairs(4, 16)),
    ("bi_pairs20", lambda: bi_pairs(5, 20)),
    ("bi_pu14_ties", lambda: B.random_bi(6, n=14, kinds=("partition", "uniform"),
                                         profit_range=(1, 3))),
    ("bi_gu12", lambda: B.random_bi(7, n=12, kinds=("graphic", "uniform"))),
    ("table14", lambda: table_instance(8, 14)),
    ("table20", lambda: table_instance(9, 20)),
]

LARGE = [
    ("bm10", lambda: B.random_bm(11, n_vertices=10)),
    ("bm11_ties", lambda: B.random_bm(12, n_vertices=11, profit_range=(1, 3),
                                      max_edges=28)),
    ("bi_pairs24", lambda: bi_pairs(13, 24)),
    ("bi_pairs26", lambda: bi_pairs(14, 26)),
    ("bi_pu26_ties", lambda: B.random_bi(15, n=26, kinds=("partition", "uniform"),
                                         profit_range=(1, 3))),
    ("table24", lambda: table_instance(16, 24)),
    ("table28", lambda: table_instance(17, 28)),
]


@pytest.mark.parametrize("name,make", SMALL, ids=[n for n, _ in SMALL])
def test_matches_every_combination(name, make):
    inst = make()
    assert inst.n <= 20
    bs = budgets(inst)
    for pinned, pool, base in searches(inst, inst.n):
        want = combination_search(inst, pool, pinned, bs)
        got = [exhaustive_search(inst, Scope(base, tuple(pool), b)) for b in bs]
        assert got == want, (pinned, pool)


def counted(search, inst, scope):
    """search's result on the scope and the number of constraint steps
    it took."""
    c = inst.constraint
    steps = []
    c.extend = lambda s, e, step=type(c).extend: steps.append(e) or step(c, s, e)
    try:
        return search(inst, scope), len(steps)
    finally:
        del c.extend


@pytest.mark.parametrize("name,make", SMALL + LARGE, ids=[n for n, _ in SMALL + LARGE])
def test_matches_the_suffix_bound(name, make):
    """Equal results, and never more steps: both walks visit sets in the
    same order with the same incumbent, and the room bound is never
    looser than the suffix sum, so the search visits a subset."""
    inst = make()
    assert inst.n <= 28
    for pinned, pool, base in searches(inst, inst.n):
        for b in budgets(inst):
            scope = Scope(base, tuple(pool), b)
            want, ref_steps = counted(reference_exhaustive_search, inst, scope)
            got, steps = counted(exhaustive_search, inst, scope)
            assert got == want, (pinned, pool, b)
            assert steps <= ref_steps, (pinned, pool, b)


def test_room_bound_cuts_what_the_suffix_bound_walks():
    """On BI pairs ∩ U(6) at half the total cost the room bound steps
    under a twentieth of the sets the suffix bound steps."""
    inst = bi_pairs(1, 24)
    scope = whole(inst)._replace(budget=budgets(inst)[-1])
    got, steps = counted(exhaustive_search, inst, scope)
    want, ref_steps = counted(reference_exhaustive_search, inst, scope)
    assert got == want
    assert steps * 20 < ref_steps, (steps, ref_steps)

"""The ceiling that lets `two_approx` and `eptas_run` skip residual
solves: `room` bounds the size of every feasible extension of a set,
the constraint's `bound` bounds the best residual tail, and on
scale-sized instances both loops skip solves while enumerating what
they always did.  With prune, `eptas_run` also cuts the walk by the
ceiling and keeps its solution."""

import importlib
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcopt as B
from bcopt.lagrangian import residual_tail
from bcopt.model import Scope
from bcopt.oracles import _walk, exhaustive_search
from util import bi_pairs, scope_of, walk_ids

# not `import bcopt.repset`: the package's `repset` function shadows
# the module as an attribute
R = importlib.import_module("bcopt.repset")
D = importlib.import_module("bcopt.driver")
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "corpus"
FILES = sorted(CORPUS.glob("*.json"))
KINDS = ("uniform", "partition", "graphic", "explicit")


def instance(source, index, seed):
    """A corpus file, or a random BM or BI with about a fifth of its
    costs 0."""
    if source == "file":
        return B.load_instance(str(FILES[index]))
    rng = random.Random(seed)
    if source == "bm":
        return B.random_bm(seed, n_vertices=rng.randint(3, 8), cost_range=(0, 4))
    kinds = (rng.choice(KINDS), rng.choice(KINDS))
    return B.random_bi(seed, n=rng.randint(2, 10), kinds=kinds, cost_range=(0, 4))


def random_solution(inst, rng):
    """A feasible F of up to 4 elements, grown in a random order."""
    order = list(inst.ids)
    rng.shuffle(order)
    size = rng.randint(0, 4)
    f = []
    for e in order:
        if len(f) < size and B.feasible(inst, f + [e]):
            f.append(e)
    return f


def largest_extension(inst, state, pool):
    """max |S| over S ⊆ pool with F ∪ S feasible, budget ignored, by
    walking every such S."""
    step = inst.constraint.extend
    walk = _walk(pool, lambda s, j: step(s, pool[j]), state)
    return max(len(prefix) for prefix, _ in walk)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    source=st.sampled_from(["file", "bm", "bi"]),
    index=st.integers(0, len(FILES) - 1),
    seed=st.integers(0, 10**6),
)
def test_ceiling_bounds_every_extension(source, index, seed):
    inst = instance(source, index, seed)
    c = inst.constraint
    P, C = inst.int_profit, inst.int_cost
    desc = sorted(inst.ids, key=lambda e: (-P[e], e))
    rng = random.Random(seed)
    for _ in range(4):
        f = random_solution(inst, rng)
        state = c.state_of(f)
        keep = c.survivors(state, inst.ids)
        assert c.room(state) >= largest_extension(inst, state, keep), f
        budget = inst.int_budget - sum(C[e] for e in f)
        full = c.bound(state, desc, P, C, budget)
        fits = sorted((P[e] for e in keep if C[e] <= budget), reverse=True)
        assert full == sum(fits[:c.room(state)])
        assert exhaustive_search(inst, Scope(state, tuple(keep), budget))[0] <= full, f
        # the early stop tells the same side of need, and below need it
        # is the bound itself
        need = rng.randint(0, full + 2)
        got = c.bound(state, desc, P, C, budget, need)
        assert (got < need) == (full < need)
        if full < need:
            assert got == full


def unpruned_two_approx(inst):
    """The ids two_approx returns when it solves every prefix's
    residual."""
    P = inst.int_profit
    best = None
    for f in walk_ids(inst, max_size=4):
        pool = [e for e in inst.ids if not f or P[e] <= min(P[x] for x in f)]
        key = R.checked_key(inst, f, residual_tail(inst, scope_of(inst, f, pool)))
        best = key if best is None else min(best, key)
    return best[1]


def unskipped_eptas(inst, eps):
    """The solution and prefix count of eptas_run when it solves every
    prefix's residual."""
    rep = B.repset(inst, eps)
    low = B.low_profit_ids(inst, eps, rep.alpha)
    walk = list(walk_ids(inst, candidates=sorted(rep.union),
                         max_size=int(1 / eps)))
    best = (0, ())
    for f in walk:
        tail = residual_tail(inst, scope_of(inst, f, low))
        best = min(best, R.checked_key(inst, f, tail))
    return B.Solution.of(inst, best[1]), len(walk)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    source=st.sampled_from(["bm", "bi"]),
    seed=st.integers(0, 10**6),
    eps=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]),
)
def test_skips_keep_the_winner_among_ties(source, seed, eps):
    """Profits 1..3 and costs 0..3 make equal-profit candidates common
    and ceilings that exactly meet the incumbent: only a strict cut
    keeps the tied winner with the smallest ids."""
    rng = random.Random(seed)
    if source == "bm":
        inst = B.random_bm(seed, n_vertices=rng.randint(4, 8), profit_range=(1, 3),
                           cost_range=(0, 3))
    else:
        kinds = (rng.choice(KINDS), rng.choice(KINDS))
        inst = B.random_bi(seed, n=rng.randint(3, 10), kinds=kinds, profit_range=(1, 3),
                           cost_range=(0, 3))
    run = B.eptas_run(inst, eps)
    full, walked = unskipped_eptas(inst, eps)
    pruned = B.eptas_run(inst, eps, prune=True)
    assert run.solution == full == pruned.solution
    assert pruned.enumerated <= run.enumerated == walked
    assert B.approximate(inst, eps) == B.eptas_run(inst, eps / 8).solution
    assert B.two_approx(inst)[0].ids == unpruned_two_approx(inst)


def test_full_rank_bounds_families_that_are_no_matroid():
    """Greedy stops at {0} on this family, whose largest set is {1, 2}."""
    m = B.ExplicitMatroid.from_table(range(3), [[], [0], [1], [2], [1, 2]])
    assert m.full_rank() == 2
    assert B.ExplicitMatroid(range(3), [[0, 1], [2]]).full_rank() == 2
    assert B.UniformMatroid(range(5), 3).full_rank() == 3
    graphic = B.GraphicMatroid(B.Graph(4, {0: (0, 1), 1: (1, 2), 2: (0, 2), 3: (2, 3)}))
    assert graphic.full_rank() == 3


@pytest.mark.parametrize("name,inst", [
    ("bm", B.random_bm(5, n_vertices=7)),
    ("bi", B.random_bi(6, n=9, kinds=("graphic", "partition"))),
], ids=["bm", "bi"])
def test_iter_solutions_cut(name, inst):
    """The cut is asked once per yielded set that may have children,
    right after the set, with its walk state, cost and profit; True
    drops its children and the walk goes on with the next set."""
    c = inst.constraint
    P, C = inst.int_profit, inst.int_cost
    walk = list(walk_ids(inst, max_size=3))
    asked = []
    out = []

    def cut(state, cost, profit):
        f = out[-1]
        asked.append(f)
        assert (state, cost, profit) == (
            c.state_of(f), sum(C[e] for e in f), sum(P[e] for e in f))
        return len(f) == 1 and f[0] % 2 == 0

    for f in walk_ids(inst, max_size=3, cut=cut):
        out.append(f)
    assert out == [f for f in walk if not (len(f) > 1 and f[0] % 2 == 0)]
    # a set below the size limit with a later id in the pool may have
    # children: the walk asks before it tries them
    last = inst.ids[-1]
    assert asked == [f for f in out if len(f) < 3 and (not f or f[-1] < last)]
    assert list(walk_ids(inst, cut=lambda *a: True)) == [()]


SCALE = [
    ("bm12", lambda: B.random_bm(12, n_vertices=12)),
    ("bi16", lambda: bi_pairs(14, 16)),
]


def counting_tails(monkeypatch, module):
    """The prefixes whose residuals a module solves from now on."""
    calls = []
    pins = []
    tail = module.residual_tail
    walker = module.iter_solutions

    def walk_pins(*a, **k):
        for item in walker(*a, **k):
            pins.append(item[0])
            yield item

    def solve_scope(inst, scope, *a):
        # the prefix just yielded is the one whose residual this is
        calls.append(pins[-1])
        return tail(inst, scope, *a)

    monkeypatch.setattr(module, "iter_solutions", walk_pins)
    monkeypatch.setattr(module, "residual_tail", solve_scope)
    return calls


@pytest.mark.parametrize("name,make", SCALE, ids=[n for n, _ in SCALE])
def test_both_loops_skip_solves(name, make, monkeypatch):
    """Fails if the skip silently stops working: each loop solves fewer
    residuals than its walk has prefixes, and `enumerated` still counts
    every prefix."""
    inst = make()
    walk = list(walk_ids(inst, max_size=4))
    solved = counting_tails(monkeypatch, R)
    visited = []
    walker = R.iter_solutions

    def walk_visited(*a, **k):
        for f in walker(*a, **k):
            visited.append(f)
            yield f

    monkeypatch.setattr(R, "iter_solutions", walk_visited)
    B.two_approx(inst)
    assert 0 < len(solved) < len(visited) < len(walk)

    eps = Fraction(1, 16)
    rep = B.repset(inst, eps)
    prefixes = list(walk_ids(inst, candidates=sorted(rep.union), max_size=16))
    solved = counting_tails(monkeypatch, D)
    run = B.eptas_run(inst, eps)
    assert run.enumerated == len(prefixes)
    assert 0 < len(solved) < len(prefixes)


def scale_sized(seed):
    """A BM with 9-12 vertices or a BI pairs instance with n 12-16, as
    the scale benchmark draws them."""
    rng = random.Random(seed)
    if seed % 2:
        return B.random_bm(seed, n_vertices=rng.randint(9, 12))
    return bi_pairs(seed, rng.choice([12, 14, 16]))


@pytest.mark.parametrize("seed", range(8))
def test_pruned_walk_keeps_the_solution(seed, monkeypatch):
    """Fails if the cut changes the winner or silently stops cutting:
    at the core ε of approximate(·, 1/2) and (·, 1/3) the pruned run
    returns the full run's solution from fewer prefixes, and solves a
    subset of its prefixes: a cut prefix cannot beat the incumbent, so
    both walks hold the same incumbent wherever they meet."""
    inst = scale_sized(seed)
    for eps in (Fraction(1, 16), Fraction(1, 24)):
        solved = counting_tails(monkeypatch, D)
        full = B.eptas_run(inst, eps)
        full_solved = set(solved)
        del solved[:]
        pruned = B.eptas_run(inst, eps, prune=True)
        monkeypatch.undo()
        assert pruned.solution == full.solution
        assert pruned.enumerated < full.enumerated
        assert set(solved) <= full_solved
    assert B.approximate(inst, Fraction(1, 2)) == B.eptas_run(inst, Fraction(1, 16)).solution

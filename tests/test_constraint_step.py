"""The constraint step that every walk and residual shares: `state_of`,
`extend`, `join` and `survivors` on both constraint classes, checked
against the whole-set predicate `feasible_mask` and the reference
residual builder `reference_residual`; and `two_approx`, whose empty
prefix goes through the same residual solve as every other prefix."""

import importlib
import pathlib
import random

import pytest

import bcopt as B
from bcopt.model import whole
from util import bi_pairs, reference_residual, scope_of, walk_ids

# not `import bcopt.repset`: the package's `repset` function shadows
# the module as an attribute
R = importlib.import_module("bcopt.repset")
L = importlib.import_module("bcopt.lagrangian")
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "corpus"


INSTANCES = (
    [(p.stem, B.load_instance(str(p))) for p in sorted(CORPUS.glob("*.json"))]
    + [(f"bm{nv}", B.random_bm(40 + nv, n_vertices=nv)) for nv in (10, 11, 12)]
    + [(f"bi{n}", bi_pairs(50 + n, n)) for n in (12, 16, 20)]
)
IDS = [name for name, _ in INSTANCES]


def mask(ids):
    return sum(1 << e for e in ids)


@pytest.mark.parametrize("name,inst", INSTANCES, ids=IDS)
def test_extend_agrees_with_feasible_mask(name, inst):
    """Grow sets one element at a time in random orders: extend and join
    refuse exactly the elements that make the set infeasible, and the
    state they return is the state of the grown set."""
    c = inst.constraint
    rng = random.Random(name)
    refused = accepted = 0
    for _ in range(30):
        order = list(inst.ids)
        rng.shuffle(order)
        chosen = []
        state = c.state_of(())
        for e in order:
            nxt = c.extend(state, e)
            ok = c.feasible_mask(mask(chosen + [e]))
            assert (nxt is not None) == ok, (chosen, e)
            # join grows the state by a whole set as extend does by one
            assert c.join(state, 1 << e) == nxt
            assert c.join(c.state_of(()), mask(chosen + [e])) == nxt
            if ok:
                chosen.append(e)
                assert nxt == c.state_of(chosen)
                state = nxt
                accepted += 1
            else:
                refused += 1
    assert accepted
    # nothing to refuse only when the whole ground set is feasible
    assert refused or c.feasible_mask(c.ground_mask)


def pinned_sets(inst):
    """Every feasible set of up to 3 elements, thinned to at most 60."""
    sols = list(walk_ids(inst, max_size=3))
    return sols[:: max(1, len(sols) // 60)]


@pytest.mark.parametrize("name,inst", INSTANCES, ids=IDS)
def test_survivors_are_the_residual_ids(name, inst):
    c = inst.constraint
    P = inst.int_profit
    for pinned in pinned_sets(inst):
        state = c.state_of(pinned)
        pools = [inst.ids, [e for e in inst.ids if e % 2]]
        if pinned:
            cut = min(P[e] for e in pinned)
            pools.append([e for e in inst.ids if P[e] <= cut])
        for pool in pools:
            kept = c.survivors(state, pool)
            assert tuple(kept) == reference_residual(inst, pinned, pool).ids
            assert not set(kept) & set(pinned)
            if c.kind == "matching":
                # BM drops every edge that cannot join the matching
                assert all(c.extend(state, e) is not None for e in kept)
            else:
                # BI drops only F: thinning keeps the dependent elements
                assert kept == [e for e in pool if e not in pinned]


def reference_two_approx(inst, solve):
    """two_approx as it was written before every prefix, the empty one
    included, went through `residual_tail`."""
    best = None
    P = inst.int_profit
    for pinned in walk_ids(inst, max_size=4):
        if pinned:
            t = min(P[e] for e in pinned)
            sub = reference_residual(inst, pinned, [e for e in inst.ids if P[e] <= t])
            tail = solve(sub).ids
        else:
            tail = solve(inst).ids
        sol = B.Solution.of(inst, set(pinned) | set(tail))
        best = sol if best is None else min(best, sol, key=B.Solution.key)
    return best


@pytest.mark.parametrize("name,inst", INSTANCES, ids=IDS)
def test_two_approx_never_calls_the_solver_on_the_instance(name, inst, monkeypatch):
    solve = B.non_profitable_solve
    tail = L.residual_tail
    walker = R.iter_solutions
    calls = []
    pins = []
    scopes = []

    def walk_pins(*a, **k):
        for item in walker(*a, **k):
            pins.append(item[0])
            yield item

    def solve_scope(inst, scope, *a):
        # the prefix just yielded is the one whose residual this is
        scopes.append((pins[-1], scope))
        return tail(inst, scope, *a)

    monkeypatch.setattr(L, "non_profitable_solve",
                        lambda sub, *a: calls.append(sub) or solve(sub, *a))
    monkeypatch.setattr(R, "iter_solutions", walk_pins)
    monkeypatch.setattr(R, "residual_tail", solve_scope)
    # a fresh copy: two_approx caches its result on the instance
    copy = B.BCInstance(inst.elements, inst.constraint, inst.budget)
    sol, alpha = B.two_approx(copy)
    assert sol == reference_two_approx(B.BCInstance(copy.elements, copy.constraint,
                                                    copy.budget), solve)
    assert alpha == sol.profit
    # every prefix, the empty one included, is a residual solved in place,
    # on the scope of its threshold pool
    assert calls == []
    P, C = copy.int_profit, copy.int_cost
    for f, scope in scopes:
        pool = [e for e in copy.ids if not f or P[e] <= min(P[x] for x in f)]
        assert scope == scope_of(copy, f, pool), f
    pins = [f for f, _ in scopes]
    assert pins[0] == ()
    assert scopes[0][1] == whole(copy)
    # the solved prefixes come in walk order, and a prefix left out cannot
    # beat α: p(F) plus the bound over its threshold pool is below it
    walk = list(walk_ids(copy, max_size=4))
    it = iter(walk)
    assert all(f in it for f in pins)
    alpha_int = sum(P[e] for e in sol.ids)
    desc = sorted(copy.ids, key=lambda e: (-P[e], e))
    solved = set(pins)
    for f in walk:
        if f not in solved:
            t = min(P[e] for e in f)
            pool = [e for e in desc if P[e] <= t]
            c = copy.constraint
            bound = c.bound(c.state_of(f), pool, P, C,
                            copy.int_budget - sum(C[e] for e in f))
            assert sum(P[e] for e in f) + bound < alpha_int, f


def test_intersection_rejects_a_table_that_is_not_hereditary():
    # every walk prunes the supersets of an infeasible set, so on this
    # table it stopped at {1} and missed {1, 2}: exact search returned
    # (0,), profit 5, where {1, 2} is feasible with profit 10
    m1 = B.ExplicitMatroid.from_table(range(3), [[], [0], [1, 2]])
    m2 = B.UniformMatroid(range(3), 3)
    with pytest.raises(B.InputError, match="not hereditary"):
        B.MatroidIntersectionConstraint(m1, m2)
    with pytest.raises(B.InputError, match="not hereditary"):
        B.MatroidIntersectionConstraint(m2, m1)
    # the table itself stays constructible, for `axiom_check`
    assert not B.axiom_check(m1).ok
    closed = B.ExplicitMatroid.from_table(range(3), [[], [0], [1], [2], [1, 2]])
    els = [B.Element(i, 5, 1) for i in range(3)]
    inst = B.BCInstance(els, B.MatroidIntersectionConstraint(closed, m2), 3)
    assert B.brute_force_opt(inst).ids == (1, 2)

"""Exchange sets per profit class: greedy matching layers for BM and
the chain recursion for BI.
"""

from fractions import Fraction

import pytest

import bcopt as B
from bcopt import exchange
from bcopt.errors import InputError

HALF = Fraction(1, 2)


def chain_instance():
    # Six unit-cost elements, free on both sides, all landing in class 2
    # at eps=1/2 and alpha=10.  Used to drive the chain recursion
    # through a pinned basis table (see pinned_bases).
    free = B.UniformMatroid(range(6), 6)
    elements = [B.Element(i, Fraction(10), Fraction(1)) for i in range(6)]
    return B.BCInstance(
        elements,
        B.MatroidIntersectionConstraint(free, B.UniformMatroid(range(6), 6)),
        6,
    )


# ---------------------------------------------------------------- matching


def test_exset_matching_star_pair(fig1):
    # alpha = OPT = 11: class 2 holds the two profit-10 edges, which
    # share a vertex, so the first greedy layer takes edge 0 and the
    # second layer takes edge 1.
    got = B.exset_matching(fig1, HALF, Fraction(11), 2)
    assert got == frozenset({0, 1})


def test_exset_matching_empty_classes(fig1):
    assert B.exset_matching(fig1, HALF, Fraction(11), 1) == frozenset()
    assert B.exset_matching(fig1, HALF, Fraction(11), 3) == frozenset()


def test_exset_matching_subset_and_bound(corpus):
    for _, _, inst in corpus[:12]:
        _, alpha = B.two_approx(inst)
        if alpha == 0:
            continue
        params = B.scheme_params(inst, HALF)
        classing = B.profit_classes(inst, HALF, alpha)
        for r in sorted(classing.classes):
            xset = B.exset_matching(inst, HALF, alpha, r, classing=classing)
            assert xset <= set(classing.classes[r])
            assert len(xset) <= 18 * params.q_eff**2


def test_exset_matching_classing_passthrough(fig1):
    classing = B.profit_classes(fig1, HALF, Fraction(11))
    with_arg = B.exset_matching(fig1, HALF, Fraction(11), 2, classing=classing)
    without = B.exset_matching(fig1, HALF, Fraction(11), 2)
    assert with_arg == without


def test_exset_matching_rejects_intersection(fig2):
    with pytest.raises(InputError):
        B.exset_matching(fig2, HALF, Fraction(8), 1)


def test_exset_class_index_range(fig1):
    for r in (0, 4, -1):
        with pytest.raises(InputError):
            B.exset_matching(fig1, HALF, Fraction(11), r)


# ------------------------------------------------------------ chain trees


def pinned_bases(monkeypatch, bases, calls=None):
    """Replace the recursion's second-matroid basis with a table from
    the current set S (recovered from the universe's complement) to
    its basis; sets missing from the table get an empty basis."""
    inst = chain_instance()

    def fake(matroid, cost, among, limit):
        s = frozenset(inst.id_set - set(among))
        if calls is not None:
            calls.append(s)
        return frozenset(bases.get(s, ()))

    monkeypatch.setattr(exchange, "min_cost_basis", fake)
    return inst


def test_extend_chain_hooked_tree(monkeypatch):
    # Branch structure under a pinned basis oracle:
    #
    #                 {}           basis {0, 1}
    #             /        \
    #          {0}          {1}    bases {2, 3} and {4, 5}
    #         /   \        /   \
    #      {0,2} {0,3}  {1,4} {1,5}
    #
    # with empty bases at depth 2.  One expansion at the root, two at
    # depth 1, four at depth 2.
    inst = pinned_bases(monkeypatch, {
        frozenset(): (0, 1),
        frozenset({0}): (2, 3),
        frozenset({1}): (4, 5),
    })
    trace: dict[int, int] = {}
    got = B.exset_matroid_intersection(inst, HALF, Fraction(10), 2, trace=trace)
    assert got == frozenset(range(6))
    assert trace == {0: 1, 1: 2, 2: 4}


def test_extend_chain_memo_collapses_equal_branches(monkeypatch):
    # {0} recurses into {0,1} and {1} into {1,0}: the same set, so the
    # second arrival is a memo hit and depth 2 is expanded once.
    inst = pinned_bases(monkeypatch, {
        frozenset(): (0, 1),
        frozenset({0}): (1,),
        frozenset({1}): (0,),
    })
    trace: dict[int, int] = {}
    got = B.exset_matroid_intersection(inst, HALF, Fraction(10), 2, trace=trace)
    assert got == frozenset({0, 1})
    assert trace == {0: 1, 1: 2, 2: 1}


def test_extend_chain_size_cutoff(monkeypatch):
    # At eps=1/2, q_eff = 4: a basis that always offers the next id
    # grows one path until |S| = q_eff + 1 = 5, which is not expanded.
    assert B.scheme_params(chain_instance(), HALF).q_eff == 4
    calls: list[frozenset[int]] = []
    inst = pinned_bases(
        monkeypatch, {frozenset(range(k)): (k,) for k in range(6)}, calls
    )
    trace: dict[int, int] = {}
    got = B.exset_matroid_intersection(inst, HALF, Fraction(10), 2, trace=trace)
    assert got == frozenset(range(5))
    assert calls == [frozenset(range(k)) for k in range(5)]
    assert trace == {k: 1 for k in range(5)}


def test_extend_chain_real_recursion(fig2):
    # Same 1-2-4 branch counts with real matroids: the root basis is
    # the two cheapest elements {0, 1}, each child sees only the other
    # partition block, and depth-2 branches have empty universes.
    trace: dict[int, int] = {}
    got = B.exset_matroid_intersection(fig2, HALF, Fraction(8), 2, trace=trace)
    assert got == frozenset({0, 1, 2, 3})
    assert trace == {0: 1, 1: 2, 2: 4}


def test_extend_chain_validation(fig1):
    with pytest.raises(InputError):
        B.exset_matroid_intersection(fig1, HALF, Fraction(11), 2)

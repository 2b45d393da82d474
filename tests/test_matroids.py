import itertools
import random
import sys
import time
from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcopt as B
from bcopt.errors import InputError
from util import (
    Contraction,
    all_independent_sets,
    explicit_copy,
    random_matroid,
    random_partition,
    reference_independent_gfp,
    reference_rank_q,
)

FIG1_GRAPH = B.Graph(5, {0: (1, 2), 1: (1, 3), 2: (3, 4), 3: (2, 4)})


def independent(m, ids):
    mask = 0
    for e in ids:
        mask |= 1 << e
    return m.independent_mask(mask)


def test_uniform_basics():
    m = B.UniformMatroid(range(3), 2)
    assert independent(m, [])
    assert independent(m, [0, 2])
    assert not independent(m, [0, 1, 2])
    with pytest.raises(InputError):
        B.UniformMatroid(range(3), -1)


def test_partition_basics():
    m = B.PartitionMatroid(range(4), [[0, 1], [2, 3]], [1, 2])
    assert independent(m, [0, 2, 3])
    assert not independent(m, [0, 1])
    with pytest.raises(InputError):
        B.PartitionMatroid(range(4), [[0, 1], [1, 2, 3]], [1, 1])   # overlap
    with pytest.raises(InputError):
        B.PartitionMatroid(range(4), [[0, 1]], [1])                 # not a cover


def test_graphic_basics():
    m = B.GraphicMatroid(FIG1_GRAPH)
    assert independent(m, [0, 1, 2])
    assert not independent(m, [0, 1, 2, 3])      # the 4-cycle


def test_linear_rational_vs_prime_field():
    cols = {0: [1, 0], 1: [0, 1], 2: [1, 1], 3: [2, 1]}
    q = B.LinearMatroid(cols, "Q")
    assert independent(q, [2, 3])
    gf2 = B.LinearMatroid({e: [c % 2 for c in v] for e, v in cols.items()}, 2)
    # over GF(2), column 3 reduces to (0,1) = column 1
    assert not independent(gf2, [1, 3])
    assert independent(q, [1, 3])
    with pytest.raises(InputError):
        B.LinearMatroid(cols, 4)      # not prime
    with pytest.raises(InputError):
        B.LinearMatroid(cols, "R")


def test_linear_rejects_inexact_entries():
    # 0.1 and 0.3 are not exactly a third of each other, so the two
    # "parallel" columns would come out independent
    for bad in (0.1, True, "1"):
        with pytest.raises(InputError):
            B.LinearMatroid({0: [bad, F(3, 10)], 1: [1, 3]}, "Q")
        with pytest.raises(InputError):
            B.LinearMatroid({0: [bad, 1], 1: [1, 3]}, 5)
    exact = B.LinearMatroid({0: [F(1, 10), F(3, 10)], 1: [1, 3]}, "Q")
    assert not independent(exact, [0, 1])


def test_explicit_basics():
    m = B.ExplicitMatroid(range(3), [[0, 1], [2]])
    assert independent(m, [0])
    assert independent(m, [0, 1])
    assert not independent(m, [0, 2])
    assert m.maximal_independent_sets == (frozenset({0, 1}), frozenset({2}))


def test_restrict_examples():
    m = Contraction(B.UniformMatroid(range(3), 2), [], [0])
    assert sorted(all_independent_sets(m)) in ([frozenset(), frozenset({0})],)
    full = B.UniformMatroid(range(3), 2)
    same = Contraction(full, [], range(3))
    assert all_independent_sets(same) == all_independent_sets(full)
    g = Contraction(B.GraphicMatroid(FIG1_GRAPH), [], [0, 1])
    assert set(all_independent_sets(g)) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_thin_examples():
    m = B.UniformMatroid(range(4), 2)
    t = Contraction(m, [0], [1, 2, 3])
    assert t.ground == frozenset({1, 2, 3})
    assert independent(t, [1])
    assert not independent(t, [1, 2])       # rank dropped to 1
    same = Contraction(m, [], range(4))
    assert all_independent_sets(same) == all_independent_sets(m)
    p = Contraction(B.PartitionMatroid(range(3), [[0, 1], [2]], [1, 1]), [0], [1, 2])
    assert not independent(p, [1])
    assert independent(p, [2])
    with pytest.raises(InputError):
        Contraction(B.UniformMatroid(range(2), 0), [0], [1])      # dependent pin


def test_min_cost_basis_limit_examples():
    m = B.UniformMatroid(range(4), 3)
    cost = [4, 3, 2, 1]
    assert B.min_cost_basis(m, cost, limit=0) == frozenset()
    assert B.min_cost_basis(m, cost, limit=4) == B.min_cost_basis(m, cost) == {1, 2, 3}
    u2 = B.UniformMatroid(range(4), 2)
    assert B.min_cost_basis(m, cost, limit=2) == B.min_cost_basis(u2, cost) == {2, 3}
    for bad in (-1, 1.0, True, "2"):
        with pytest.raises(InputError):
            B.min_cost_basis(m, cost, limit=bad)


def test_min_cost_basis_among_examples():
    m = B.PartitionMatroid(range(4), [[0, 1], [2, 3]], [1, 1])
    cost = [1, 2, 3, 4]
    assert B.min_cost_basis(m, cost, among=[1, 3]) == {1, 3}
    assert B.min_cost_basis(m, cost, among=[0, 1, 0]) == {0}
    assert B.min_cost_basis(m, cost, among=[]) == frozenset()
    assert B.min_cost_basis(m, cost, among=range(4), limit=1) == {0}
    for bad in ([4], [-1], ["a"], 3):
        with pytest.raises(InputError):
            B.min_cost_basis(m, cost, among=bad)


def test_combinators_compose():
    m = B.PartitionMatroid(range(6), [[0, 1, 2], [3, 4, 5]], [2, 2])
    wrapped = Contraction(m, [3], [0, 1, 4, 5])
    for k in range(5):
        for combo in itertools.combinations([0, 1, 4, 5], k):
            expect = independent(m, set(combo) | {3}) and set(combo) <= {0, 1, 4, 5}
            assert independent(wrapped, combo) == expect


def test_min_cost_basis_examples():
    m = B.UniformMatroid(range(3), 2)
    assert B.min_cost_basis(m, {0: F(3), 1: F(1), 2: F(2)}) == {1, 2}
    single = B.ExplicitMatroid(range(3), [[0, 2]])
    assert B.min_cost_basis(single, {0: F(9), 1: F(0), 2: F(9)}) == {0, 2}
    tree = B.min_cost_basis(
        B.GraphicMatroid(FIG1_GRAPH), {0: F(1), 1: F(2), 2: F(1), 3: F(2)}
    )
    assert tree == {0, 1, 2}


def test_min_cost_basis_tie_break_by_id():
    m = B.UniformMatroid(range(3), 1)
    assert B.min_cost_basis(m, {0: F(5), 1: F(5), 2: F(5)}) == {0}


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_min_cost_basis_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m = random_matroid(rng, tuple(range(n)))
    cost = {e: F(rng.randint(1, 9)) for e in range(n)}
    basis = B.min_cost_basis(m, cost)
    indep = all_independent_sets(m)
    rank = max(len(s) for s in indep)
    best = min(
        (sum((cost[e] for e in s), F(0)) for s in indep if len(s) == rank),
        default=F(0),
    )
    assert len(basis) == rank
    assert sum((cost[e] for e in basis), F(0)) == best


def test_min_cost_basis_among_limit_matches_brute_force():
    """The greedy over among stopped at limit is, among the independent
    subsets of among of size min(limit, rank), the one with the least
    sorted (cost, id) tuple, for limits 0, below the rank and above."""
    seen = set()
    for seed in range(60):
        rng = random.Random(8_000 + seed)
        n = rng.randint(1, 8)
        m = random_matroid(rng, tuple(range(n)))
        cost = [rng.randint(1, 4) for _ in range(n)]
        among = [e for e in range(n) if rng.random() < 0.7]
        subsets = [s for s in all_independent_sets(m) if s <= set(among)]
        rank = max(len(s) for s in subsets)
        for limit in (0, rng.randint(1, max(rank - 1, 1)), rank, rank + rng.randint(1, 3)):
            size = min(limit, rank)
            best = min(
                tuple(sorted((cost[e], e) for e in s)) for s in subsets if len(s) == size
            )
            got = B.min_cost_basis(m, cost, among, limit)
            assert tuple(sorted((cost[e], e) for e in got)) == best, (seed, limit)
            seen.add((limit > 0) + (limit >= rank) + (limit > rank))
    assert seen == {0, 1, 2, 3}


def test_axiom_check_passes_concrete():
    for m in (
        B.UniformMatroid(range(6), 3),
        B.PartitionMatroid(range(7), [[0, 1, 2], [3, 4], [5, 6]], [2, 1, 1]),
        B.GraphicMatroid(FIG1_GRAPH),
        B.LinearMatroid({0: [1, 0], 1: [0, 1], 2: [1, 1]}, "Q"),
    ):
        rep = B.axiom_check(m)
        assert rep.ok and rep.mode == "exhaustive"


def test_axiom_check_reports_hereditary_violation():
    bad = B.ExplicitMatroid.from_table(range(2), [[], [0], [0, 1]])
    rep = B.axiom_check(bad)
    assert not rep.ok
    assert rep.witness["axiom"] == "hereditary"


def test_axiom_check_reports_exchange_violation():
    # {0,1} and {2} maximal with different sizes: exchange must fail
    bad = B.ExplicitMatroid.from_table(range(3), [[], [0], [1], [2], [0, 1]])
    rep = B.axiom_check(bad)
    assert not rep.ok
    assert rep.witness["axiom"] == "exchange"
    a = frozenset(rep.witness["A"])
    b = frozenset(rep.witness["B"])
    assert len(a) == len(b) + 1


def test_axiom_check_sampled_mode():
    m = B.UniformMatroid(range(16), 5)
    rep = B.axiom_check(m, samples=300, seed=1)
    assert rep.ok and rep.mode == "sampled"
    assert rep.pairs_checked > 0


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_axiom_check_random_compositions(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m = random_matroid(rng, tuple(range(n)))
    keep = [e for e in range(n) if rng.random() < 0.8]
    pin = []
    for e in sorted(keep, key=lambda x: rng.random()):
        if independent(m, pin + [e]):
            pin.append(e)
            if len(pin) >= 2:
                break
    pin = pin[: rng.randint(0, len(pin))]
    m = Contraction(m, pin, [e for e in keep if e not in pin])
    assert B.axiom_check(m).ok


def test_observation_two_exchange_growth():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 7)
        m = explicit_copy(random_matroid(rng, tuple(range(n))))
        indep = all_independent_sets(m)
        iset = set(indep)
        for a_set in indep:
            for b_set in indep:
                need = max(len(a_set) - len(b_set), 0)
                assert any(
                    frozenset(b_set | set(d)) in iset
                    for d in itertools.combinations(sorted(a_set - b_set), need)
                )


def test_exchange_element_exists_when_blocked():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(2, 7)
        m = explicit_copy(random_matroid(rng, tuple(range(n))))
        indep = all_independent_sets(m)
        iset = set(indep)
        for a_set in indep:
            for b_set in indep:
                for a in a_set - b_set:
                    if frozenset(b_set | {a}) in iset:
                        continue
                    assert any(
                        frozenset((a_set - {a}) | {b}) in iset
                        for b in b_set - a_set
                    )


def test_truncated_restricted_min_basis_swap():
    # for B = min basis over u stopped at q elements (the basis of the
    # matroid restricted to u and truncated at q) and any
    # independent set of size <= q, every member of the overlap swaps into
    # the set for a basis element that is no more expensive
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 8)
        m = explicit_copy(random_matroid(rng, tuple(range(n))))
        cost = {e: F(rng.randint(1, 6)) for e in range(n)}
        u = [e for e in range(n) if rng.random() < 0.7]
        q = rng.randint(1, n)
        basis = B.min_cost_basis(m, cost, among=u, limit=q)
        iset = set(all_independent_sets(m))
        for delta in iset:
            if len(delta) > q:
                continue
            for a in (delta & set(u)) - basis:
                assert any(
                    frozenset((delta - {a}) | {b}) in iset and cost[b] <= cost[a]
                    for b in basis - delta
                ), (sorted(delta), a, sorted(basis))


def test_min_basis_blocking_property():
    # greedy minimum bases block every outsider at its own cost level
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = random_matroid(rng, tuple(range(n)))
        cost = {e: F(rng.randint(1, 5)) for e in range(n)}
        basis = B.min_cost_basis(m, cost)
        for a in set(range(n)) - basis:
            cheap = {e for e in basis if cost[e] <= cost[a]}
            assert not independent(m, cheap | {a})


def test_repeated_queries_agree():
    m = B.UniformMatroid(range(5), 3)
    assert independent(m, [0, 1])
    assert independent(m, [0, 1])
    assert not independent(m, [0, 1, 2, 3])
    assert not independent(m, [0, 1, 2, 3])


def _random_block_matroid(rng):
    """A uniform or partition matroid over scattered ids; partition
    capacities run from 0 to 3, so masks are often over capacity."""
    n = rng.randint(1, 12)
    ground = sorted(rng.sample(range(2 * n), n))
    if rng.random() < 0.3:
        return B.UniformMatroid(ground, rng.randint(0, n))
    return random_partition(rng, ground, rng.randint(1, n), 0, 3)


def _random_submask(rng, mask):
    bits = [1 << e for e in range(mask.bit_length()) if mask >> e & 1]
    return sum(b for b in bits if rng.random() < 0.6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_swap_classes_override_equals_query_loop(seed):
    # the closed forms group the x exactly as one swaps call per x does,
    # key order included, for dependent sets, capacity-0 blocks, base
    # bits and an empty outside too
    rng = random.Random(seed)
    m = _random_block_matroid(rng)
    for _ in range(10):
        smask = _random_submask(rng, m.ground_mask)
        outside = _random_submask(rng, m.ground_mask & ~smask)
        among = _random_submask(rng, smask)  # the rest of smask is a base
        got = m.swap_classes(smask, outside, among)
        want = B.Matroid.swap_classes(m, smask, outside, among)
        assert list(got.items()) == list(want.items())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_addable_override_equals_query_loop(seed):
    # the closed forms list exactly what one independence query per x
    # does, for dependent sets and capacity-0 blocks too
    rng = random.Random(seed)
    m = _random_block_matroid(rng)
    for _ in range(10):
        smask = _random_submask(rng, m.ground_mask)
        among = _random_submask(rng, m.ground_mask & ~smask)
        assert m.addable(smask, among) == B.Matroid.addable(m, smask, among)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_partition_independence_counts_every_block(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    ground = sorted(rng.sample(range(2 * n), n))
    m = random_partition(rng, ground, rng.randint(1, n), 0, 3)
    for _ in range(10):
        mask = _random_submask(rng, m.ground_mask)
        want = all(
            sum(1 for e in blk if mask >> e & 1) <= cap
            for blk, cap in zip(m.blocks, m.capacities)
        )
        assert m.independent_mask(mask) == want


def test_addable_closed_forms_by_hand():
    u = B.UniformMatroid(range(5), 2)
    assert u.addable(0b00001, 0b11100) == 0b11100   # room for one more
    assert u.addable(0b00011, 0b11100) == 0         # |S| = rank
    p = B.PartitionMatroid(range(6), [[0, 1, 2], [3, 4], [5]], [2, 1, 0])
    assert p.addable(0b001001, 0b110110) == 0b000110  # block 1 full, 2 cap 0
    assert p.addable(0b000011, 0b111100) == 0b011000  # block 0 full
    assert p.addable(0b011000, 0b000111) == 0         # dependent S: the loop


def test_hereditary_tells_raw_tables_apart():
    assert B.ExplicitMatroid(range(3), [[0, 1], [2]]).hereditary()
    assert B.ExplicitMatroid.from_table(range(3), [[], [0], [1], [0, 1]]).hereditary()
    # ∅ is independent whether or not the table lists it
    assert B.ExplicitMatroid.from_table(range(2), [[0]]).hereditary()
    assert not B.ExplicitMatroid.from_table(range(3), [[], [0], [1, 2]]).hereditary()


def test_swaps_closed_forms_by_hand():
    # one x per call: the single class is {swaps of x: x}
    u = B.UniformMatroid(range(5), 2)
    assert u.swap_classes(0b00011, 1 << 4, 0b00011) == {0b00011: 1 << 4}  # |S| = rank
    assert u.swap_classes(0b00111, 1 << 4, 0b00101) == {0: 1 << 4}  # S already dependent
    p = B.PartitionMatroid(range(6), [[0, 1, 2], [3, 4], [5]], [2, 1, 0])
    assert p.swap_classes(0b001001, 1 << 1, 0b001001) == {0b001001: 1 << 1}  # x's block has room
    assert p.swap_classes(0b001011, 1 << 2, 0b001011) == {0b000011: 1 << 2}  # full: swap inside it
    assert p.swap_classes(0b001001, 1 << 5, 0b001001) == {0: 1 << 5}  # capacity 0
    assert p.swap_classes(0b001001, 1 << 4, 0b000001) == {0: 1 << 4}  # the block's y is base
    assert p.swap_classes(0b011001, 1 << 2, 0b011001) == {0b011000: 1 << 2}  # dependent S: the loop


def test_swap_classes_merge_blocks_by_hand():
    # blocks 1 and 2 both have room, so their x share one class; block
    # 0 is full.  Keys come in the order of their least x
    p = B.PartitionMatroid(range(8), [[0, 1, 2], [3, 4], [5, 6, 7]], [2, 2, 2])
    smask = 0b00001011
    assert list(p.swap_classes(smask, 0b11110100, smask).items()) == [
        (0b00000011, 0b00000100),
        (smask, 0b11110000),
    ]
    assert list(p.swap_classes(smask, 0b11110100, smask).items()) == list(
        B.Matroid.swap_classes(p, smask, 0b11110100, smask).items()
    )


class _DependentEmpty(B.Matroid):
    """Every set is dependent, ∅ included: no matroid."""

    def _indep_mask(self, mask):
        return False


class _EmptyOnlyDependent(B.Matroid):
    """Every nonempty set is independent and ∅ is not: heredity fails
    only at ∅."""

    def _indep_mask(self, mask):
        return mask != 0


@pytest.mark.parametrize("cls", [_DependentEmpty, _EmptyOnlyDependent])
@pytest.mark.parametrize("n,mode", [(3, "exhaustive"), (16, "sampled")])
def test_axiom_check_sees_a_dependent_empty_set(cls, n, mode):
    m = cls(range(n))
    assert not m.independent_mask(0)
    rep = B.axiom_check(m, samples=50)
    assert not rep.ok and rep.mode == mode
    assert rep.witness == {"axiom": "empty"}


def _all_masks_agree(m, vectors, reference):
    # vectors: the columns as the reference reads them, by id
    ids = m.ground_list
    for k in range(len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            mask = sum(1 << e for e in combo)
            want = reference([vectors[e] for e in combo])
            assert m.independent_mask(mask) == want, combo


def test_linear_rational_matches_fraction_elimination():
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 7)

        def entry():
            return F(rng.randint(-4, 4), rng.randint(1, 5))

        cols = {}
        for e in range(n):
            if e >= 2 and rng.random() < 0.4:
                # a planted rational combination of two earlier columns
                a, b = rng.sample(range(e), 2)
                x, y = entry(), entry()
                cols[e] = [x * s + y * t for s, t in zip(cols[a], cols[b])]
            else:
                cols[e] = [entry() for _ in range(dim)]
        m = B.LinearMatroid(cols, "Q")
        _all_masks_agree(m, cols, lambda vs: reference_rank_q(vs) == len(vs))
        assert m.columns == {e: tuple(c) for e, c in cols.items()}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_linear_prime_field_matches_coefficient_search(p):
    rng = random.Random(p)
    for _ in range(40):
        dim = rng.randint(1, 3)
        n = rng.randint(1, 4 if p == 7 else 5)
        cols = {e: [rng.randint(-2 * p, 2 * p) for _ in range(dim)] for e in range(n)}
        m = B.LinearMatroid(cols, p)
        _all_masks_agree(m, cols, lambda vs: reference_independent_gfp(vs, p))


def test_graphic_matches_networkx_forests():
    rng = random.Random(5)
    for _ in range(40):
        nv = rng.randint(2, 6)
        ends = {}
        for e in range(rng.randint(1, 8)):
            if ends and rng.random() < 0.3:
                ends[e] = ends[rng.randrange(e)]  # a parallel copy
            else:
                ends[e] = tuple(rng.sample(range(nv), 2))
        m = B.GraphicMatroid(B.Graph(nv, ends))
        for k in range(len(ends) + 1):
            for combo in itertools.combinations(sorted(ends), k):
                g = nx.MultiGraph()
                g.add_nodes_from(range(nv))
                g.add_edges_from(ends[e] for e in combo)
                assert m.is_independent(combo) == nx.is_forest(g), (ends, combo)


def _state_sizes(m):
    return {k: sys.getsizeof(v) for k, v in vars(m).items()}


@pytest.mark.parametrize("make", [
    lambda: B.UniformMatroid(range(12), 5),
    lambda: B.PartitionMatroid(range(12), [range(4), range(4, 12)], [2, 3]),
    lambda: B.GraphicMatroid(B.Graph(6, {e: (e % 6, (e + 1 + e // 6) % 6) for e in range(12)})),
    lambda: B.LinearMatroid({e: [F(e, 3), e % 4, 1] for e in range(12)}, "Q"),
    lambda: B.LinearMatroid({e: [e % 3, e % 5, 1] for e in range(12)}, 5),
    lambda: B.ExplicitMatroid(range(12), [range(5), range(4, 10)]),
    lambda: B.ExplicitMatroid.from_table(range(12), [[e] for e in range(12)]),
], ids=["uniform", "partition", "graphic", "linear_q", "linear_gf5", "explicit", "table"])
def test_oracle_state_does_not_grow_with_queries(make):
    m = make()
    before = _state_sizes(m)
    rng = random.Random(0)
    for _ in range(1000):
        m.independent_mask(rng.getrandbits(12))
    assert _state_sizes(m) == before


def test_from_table_lists_the_empty_set():
    listed = B.ExplicitMatroid.from_table(range(2), [[], [0]])
    unlisted = B.ExplicitMatroid.from_table(range(2), [[0]])
    assert unlisted.independent_mask(0)
    assert listed == unlisted


def test_prime_field_orders_are_decided_at_once():
    """Field orders are tested by deterministic Miller–Rabin: trial
    division up to √p did not return on 2**61 − 1 within seconds.
    2**61 + 1 (divisible by 3) and the Carmichael number 561 are
    composite, and so is 318665857834031151167461, a strong pseudoprime
    to the twelve bases 2 … 37 that base 41 exposes; orders from the
    bound on, where the thirteen bases no longer decide primality, are
    refused whatever their size."""
    p = 2**61 - 1
    started = time.perf_counter()
    assert B.LinearMatroid({0: (1,), 1: (p + 2,)}, field=p).columns[1] == (2,)
    assert time.perf_counter() - started < 1
    for composite in (2**61 + 1, 561, 4, 3215031751, 3825123056546413051,
                      318665857834031151167461):
        with pytest.raises(InputError, match="not prime"):
            B.LinearMatroid({0: (1,)}, field=composite)
    # the least strong pseudoprime to all thirteen bases, a prime past it,
    # and an order whose decimal numeral str() refuses
    for big in (3317044064679887385961981, 2**89 - 1, 10**5000):
        with pytest.raises(InputError, match="too large"):
            B.LinearMatroid({0: (1,)}, field=big)


def test_is_prime_matches_trial_division():
    from bcopt.matroids import _is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(2, 5000) if _is_prime(n)] == [
        n for n in range(2, 5000) if trial(n)
    ]
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**9)
        assert _is_prime(n) == trial(n), n

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcopt as B
from bcopt import lagrangian, oracles
from bcopt.errors import CapacityError, InputError
from bcopt.generate import BI_KINDS
from bcopt.matroids import Matroid
from bcopt.model import relaxation_weights
from util import (
    Contraction,
    all_matchings,
    brute_max_weight,
    dict_label_search,
    random_graph,
    random_matroid,
    random_partition,
    reference_best_augmenting_path,
    walk_ids,
)


def test_brute_force_opt_fig1(fig1):
    sol = B.brute_force_opt(fig1)
    assert sol.ids == (0, 2)
    assert sol.profit == F(11)
    assert sol.cost == F(2)


def test_brute_force_opt_canonical_tie_break():
    # two disjoint edges with equal profits: lexicographically smallest wins
    g = B.Graph(4, {0: (0, 1), 1: (2, 3)})
    els = [B.Element(0, F(5), F(1)), B.Element(1, F(5), F(1))]
    inst = B.BCInstance(els, B.MatchingConstraint(g), F(1))
    assert B.brute_force_opt(inst).ids == (0,)


def test_brute_force_opt_respects_size_gate(fig1):
    with pytest.raises(CapacityError):
        B.brute_force_opt(fig1, max_n=3)


def test_brute_force_opt_empty():
    inst = B.BCInstance([], B.MatchingConstraint(B.Graph(1, {})), F(0))
    sol = B.brute_force_opt(inst)
    assert sol.ids == () and sol.profit == 0


def test_iter_solutions_order(fig1):
    got = list(walk_ids(fig1))
    assert got[0] == ()
    assert got == sorted(got)
    assert (0, 2) in got and (0, 1) not in got
    small = list(walk_ids(fig1, candidates=[0, 2], max_size=1))
    assert small == [(), (0,), (2,)]


def test_iter_solutions_rejects_repeated_candidates(fig1):
    # a repeated id used to be walked twice: (0, 0) with doubled cost
    with pytest.raises(InputError):
        B.iter_solutions(fig1, candidates=[0, 0])
    with pytest.raises(InputError):
        B.iter_solutions(fig1, candidates=[2, 0, 2])


def test_walk_order_limit_and_bound():
    from bcopt.oracles import _walk

    def take_all(state, j):
        return state + 1

    got = [tuple(p) for p, _ in _walk([1, 4, 7], take_all, 0)]
    assert got == sorted(got) and len(got) == 8 and got[0] == ()
    # each set arrives with the state extend built for it
    assert all(len(p) == s for p, s in _walk([1, 4, 7], take_all, 0))
    assert [tuple(p) for p, _ in _walk([1, 4, 7], take_all, 0, limit=1)] == [
        (), (1,), (4,), (7,)
    ]
    # a bound at position 1 cuts 4 and its later sibling 7, at every depth
    cut = [tuple(p) for p, _ in _walk([1, 4, 7], take_all, 0, bound=lambda j, s: j == 1)]
    assert cut == [(), (1,)]
    # extend returning None prunes the element's whole subtree
    skip4 = [tuple(p) for p, _ in _walk([1, 4, 7], lambda s, j: None if j == 1 else s, 0)]
    assert skip4 == [(), (1,), (1, 7), (7,)]
    with pytest.raises(InputError):
        _walk([1, 1], take_all, 0)


def test_iter_solutions_matches_brute_enumeration(corpus):
    for kind, i, inst in corpus[:8]:
        got = set(walk_ids(inst))
        want = set()
        for k in range(inst.n + 1):
            for combo in itertools.combinations(inst.ids, k):
                if B.feasible(inst, combo):
                    want.add(combo)
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_max_weight_matching_matches_enumeration(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=7, max_edges=10)
    w = {e: F(rng.randint(-3, 12)) for e in g.edge_ids}
    got = B.max_weight_matching(g, w)
    assert g.is_matching(set(got))
    assert sum((w[e] for e in got), F(0)) == brute_max_weight(all_matchings(g), w)


def test_max_weight_matching_exact_on_near_equal_rational_weights():
    # weights 10^17 + small/7 differ below float precision: a blossom
    # that halves slacks in floating point (networkx's non-integer path)
    # misses the maximum, so the weights must reach it as scaled integers
    rng = random.Random(0)
    ends = {}
    w = {}
    for u, v in itertools.combinations(range(8), 2):
        if rng.random() < 0.5:
            e = len(ends)
            ends[e] = (u, v)
            w[e] = 10**17 + rng.randint(0, 3) + F(rng.randint(1, 5), 7)
    g = B.Graph(8, ends)
    got = B.max_weight_matching(g, w)
    assert g.is_matching(set(got))
    best = brute_max_weight(all_matchings(g), w)
    assert best == F(2800000000000000068, 7)
    assert sum((w[e] for e in got), F(0)) == best


def test_max_weight_matching_rejects_float_weights():
    g = B.Graph(2, {0: (0, 1)})
    with pytest.raises(InputError):
        B.max_weight_matching(g, {0: 0.5})


def test_max_weight_matching_drops_nonpositive():
    g = B.Graph(4, {0: (0, 1), 1: (2, 3)})
    got = B.max_weight_matching(g, {0: F(0), 1: F(-2)})
    assert got == frozenset()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_max_weight_matching_takes_the_weighted_edges(seed):
    # a residual passes weights for its surviving edges only: the result
    # is the matching of the graph restricted to them
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=8, max_edges=12)
    keep = [e for e in g.edge_ids if rng.random() < 0.6]
    w = {e: F(rng.randint(-3, 12)) for e in keep}
    assert B.max_weight_matching(g, w) == B.max_weight_matching(g.restrict(keep), w)


def test_max_weight_matching_rejects_unknown_edges():
    g = B.Graph(2, {0: (0, 1)})
    with pytest.raises(InputError):
        B.max_weight_matching(g, {0: F(1), 5: F(1)})


TIE_HEAVY = (F(-1), F(0), F(1, 2), F(1), F(1), F(3, 2), F(2))


def _chain_cases():
    """(m1, m2, weights): a fixed partition pair, then seeded random_bi
    pairs with n ≤ 10 and tie-heavy weights."""
    m1 = B.PartitionMatroid(range(4), [[0, 1], [2, 3]], [1, 1])
    m2 = B.PartitionMatroid(range(4), [[0, 3], [1, 2]], [1, 1])
    yield m1, m2, {0: F(10), 1: F(9), 2: F(8), 3: F(1)}
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        kinds = (rng.choice(BI_KINDS), rng.choice(BI_KINDS))
        c = B.random_bi(seed, n=n, kinds=kinds).constraint
        yield c.m1, c.m2, {e: rng.choice(TIE_HEAVY) for e in range(n)}


def test_mi_extreme_chain_sizes():
    for m1, m2, w in _chain_cases():
        chain = B.mi_extreme_chain(m1, m2, w)
        ground = m1.ground_list
        assert chain[0] == frozenset()
        assert [len(s) for s in chain] == list(range(len(chain)))
        # each level is a max-weight common independent set of its size
        common = [
            frozenset(c)
            for k in range(len(ground) + 1)
            for c in itertools.combinations(ground, k)
            if m1.independent_mask(sum(1 << e for e in c))
            and m2.independent_mask(sum(1 << e for e in c))
        ]
        for size, s in enumerate(chain):
            best = max(
                (sum((w[e] for e in c), F(0)) for c in common if len(c) == size),
                default=F(0),
            )
            assert sum((w[e] for e in s), F(0)) == best
        # and the last level is a max-weight common independent set overall
        assert sum((w[e] for e in chain[-1]), F(0)) == brute_max_weight(common, w)


def _reference_chain(
    monkeypatch, m1, m2, w, base=0, search=reference_best_augmenting_path
):
    """The chain grown with a reference path search patched in; each
    step also checks that the library's search returns the same
    (length, hops, sequence)."""
    real = oracles._best_augmenting_path

    def reference(*args):
        want = search(*args)
        assert real(*args) == want
        return want

    with monkeypatch.context() as mp:
        mp.setattr(oracles, "_best_augmenting_path", reference)
        return B.mi_extreme_chain(m1, m2, w, base)


@pytest.mark.parametrize(
    "kinds", list(itertools.product(BI_KINDS, repeat=2)), ids="-".join
)
def test_mi_extreme_chain_matches_simple_path_reference(kinds, monkeypatch):
    for n in range(4, 13):
        inst = B.random_bi(n, n=n, kinds=kinds)
        c = inst.constraint
        rng = random.Random(n)
        weights = [relaxation_weights(inst, lam) for lam in (F(0), F(1, 2), F(3, 2))]
        weights.append({e: rng.choice(TIE_HEAVY) for e in range(n)})
        for w in weights:
            want = _reference_chain(monkeypatch, c.m1, c.m2, w)
            assert B.mi_extreme_chain(c.m1, c.m2, w) == want


@pytest.mark.parametrize(
    "n,first", [(30, "uniform"), (40, "partition"), (55, "uniform"), (70, "partition")]
)
def test_mi_extreme_chain_matches_reference_at_nps_sizes(n, first, monkeypatch):
    # shaped like the Lagrangian NPS's BI relaxations: rank about n/2
    # intersected with a uniform matroid of rank n/3
    rng = random.Random(n)
    if first == "uniform":
        m1 = B.UniformMatroid(range(n), n // 2)
    else:
        block = [rng.randrange(n // 2) for _ in range(n)]
        groups = [[e for e in range(n) if block[e] == b] for b in range(n // 2)]
        groups = [g for g in groups if g]
        m1 = B.PartitionMatroid(range(n), groups, [1] * len(groups))
    m2 = B.UniformMatroid(range(n), n // 3)
    w = {e: F(rng.randint(1, 20)) - F(rng.randint(1, 20), 2) for e in range(n)}
    assert B.mi_extreme_chain(m1, m2, w) == _reference_chain(monkeypatch, m1, m2, w)


def _probe_lams(inst):
    """λ = 0, the λ of every probe of inst's Lagrangian search, where
    the search snaps onto breakpoints at which two sets tie, and the
    λ ≤ 2 at which the relaxed weights of two of the first ten elements
    tie."""
    lams = {F(0)}
    real = lagrangian.relaxation_solve

    def probe(inst, lam, *args, **kwargs):
        lams.add(F(lam))
        return real(inst, lam, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lagrangian, "relaxation_solve", probe)
        B.lagrangian_search(inst)
    for a, b in itertools.combinations(inst.elements[:10], 2):
        if a.cost != b.cost and 0 <= (a.profit - b.profit) / (a.cost - b.cost) <= 2:
            lams.add((a.profit - b.profit) / (a.cost - b.cost))
    return sorted(lams)


def _nps_bi(seed, n, first):
    """A BI instance shaped like the Lagrangian NPS's: the first matroid
    uniform of rank n/2 or partition over n/2 random blocks of capacity
    1, the second U(n/3), budget a tenth of the total cost."""
    rng = random.Random(seed)
    els = [B.Element(i, F(rng.randint(1, 20)), F(rng.randint(1, 20))) for i in range(n)]
    if first == "uniform":
        m1 = B.UniformMatroid(range(n), n // 2)
    else:
        m1 = random_partition(rng, range(n), n // 2, 1, 1)
    m2 = B.UniformMatroid(range(n), n // 3)
    total = sum(e.cost for e in els)
    return B.BCInstance(els, B.MatroidIntersectionConstraint(m1, m2), total / 10)


@pytest.mark.parametrize(
    "seed,n,first", [(1, 40, "uniform"), (2, 52, "partition"), (3, 70, "uniform"),
                     (4, 70, "partition")]
)
def test_label_search_matches_the_dict_search_at_nps_sizes(seed, n, first, monkeypatch):
    inst = _nps_bi(seed, n, first)
    c = inst.constraint
    for lam in _probe_lams(inst):
        w = relaxation_weights(inst, lam)
        chain = _reference_chain(monkeypatch, c.m1, c.m2, w, search=dict_label_search)
        assert B.mi_extreme_chain(c.m1, c.m2, w) == chain


@pytest.mark.parametrize("kinds", [("graphic", "explicit"), ("explicit", "graphic"),
                                   ("graphic", "uniform"), ("partition", "explicit")])
def test_label_search_matches_the_dict_search_off_the_closed_forms(kinds, monkeypatch):
    # graphic and explicit matroids answer addable and swap_classes
    # through the base class's query loops
    for seed in range(3):
        for n in (6, 8, 10):
            inst = B.random_bi(seed, n=n, kinds=kinds)
            c = inst.constraint
            for lam in _probe_lams(inst):
                w = relaxation_weights(inst, lam)
                chain = _reference_chain(
                    monkeypatch, c.m1, c.m2, w, search=dict_label_search
                )
                assert B.mi_extreme_chain(c.m1, c.m2, w) == chain


@pytest.mark.parametrize("n", [12, 20, 30])
@pytest.mark.parametrize("second", ["uniform", "partition"])
def test_mi_extreme_chain_matches_reference_with_capacities_and_a_base(
    n, second, monkeypatch
):
    # capacities above 1 make some blocks roomy and others full, and the
    # base's bits count toward its blocks without ever being swapped out
    rng = random.Random(n)
    m1 = random_partition(rng, range(n), n // 2, 0, 3)
    if second == "uniform":
        m2 = B.UniformMatroid(range(n), n // 2)
    else:
        m2 = random_partition(rng, range(n), n // 2, 1, 2)
    base = 0
    for e in rng.sample(range(n), n // 4):
        cand = base | 1 << e
        if m1.independent_mask(cand) and m2.independent_mask(cand):
            base = cand
    assert base
    w = {e: rng.choice(TIE_HEAVY) for e in range(n) if not base >> e & 1}
    chain = _reference_chain(monkeypatch, m1, m2, w, base)
    assert len(chain) > 2
    assert B.mi_extreme_chain(m1, m2, w, base) == chain


@pytest.mark.parametrize("seed", range(8))
def test_augmenting_path_when_many_tails_share_a_head_set(seed, monkeypatch):
    # weights 1 and 2 tie many (length, hops) keys, and blocks of
    # capacity 2 or 3, some full, give many tails one head set: the
    # search must relax each head set from the tail whose sequence is
    # least, at every augmentation of the chain
    rng = random.Random(seed)
    n = 24
    m1 = random_partition(rng, range(n), 5, 2, 3)
    m2 = random_partition(rng, range(n), 4, 2, 3)
    base = 0
    for e in rng.sample(range(n), 4):
        cand = base | 1 << e
        if m1.independent_mask(cand) and m2.independent_mask(cand):
            base = cand
    assert base
    w = {e: F(rng.randint(1, 2)) for e in range(n) if not base >> e & 1}
    chain = _reference_chain(monkeypatch, m1, m2, w, base)
    assert len(chain) > 3
    assert B.mi_extreme_chain(m1, m2, w, base) == chain
    # the x that share a nonempty second-matroid mask are tails with
    # one head set
    shared = 0
    for s in chain:
        smask = base | sum(1 << e for e in s)
        masks = [m2.swaps(smask, x, smask & ~base) for x in w if not smask >> x & 1]
        shared = max([shared, *(masks.count(m) for m in masks if m)])
    assert shared >= 3


def test_augmenting_path_relaxes_a_head_set_from_its_least_tail(monkeypatch):
    # S = the inside block {4..7}, with base 9 sharing its first-matroid
    # block (capacity 5, full): every y in S swaps for the sink 8, so
    # the y are four tails of one head set.  Each y is reached from one
    # source (second-matroid pairs {i, 7 − i}, capacity 1), and all tie
    # on (length 0, 1 hop); the least sequence, (0, 7), belongs to the
    # tail with the largest id
    m1 = B.PartitionMatroid(range(10), [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9]], [4, 5])
    m2 = B.PartitionMatroid(
        range(10), [[0, 7], [1, 6], [2, 5], [3, 4], [8], [9]], [1] * 6
    )
    elems = range(9)
    w = {e: F(1) for e in elems}
    args = (m1, m2, w, elems, 0b1011110000)
    assert oracles._best_augmenting_path(*args) == (F(-1), 2, (0, 7, 8))
    assert reference_best_augmenting_path(*args) == (F(-1), 2, (0, 7, 8))
    chain = _reference_chain(monkeypatch, m1, m2, w, 1 << 9)
    assert B.mi_extreme_chain(m1, m2, w, 1 << 9) == chain


@pytest.mark.parametrize("first", ["uniform", "partition"])
def test_augmentation_queries_grow_with_the_outside_only(first, monkeypatch):
    # the uniform matroids answer addable and swap_classes with no
    # query; a partition matroid asks whether S is independent once for
    # its sources and once for its swap classes: 2 per augmentation,
    # where querying every (y, x) pair would take 2·|S|·|E∖S|
    n = 40
    rng = random.Random(first)
    if first == "uniform":
        m1 = B.UniformMatroid(range(n), n // 2)
    else:
        m1 = random_partition(rng, range(n), n // 2, 1, 2)
    m2 = B.UniformMatroid(range(n), n // 3)
    w = {e: F(rng.randint(1, 20)) for e in range(n)}
    real_indep = Matroid.independent_mask
    real_path = oracles._best_augmenting_path
    calls = 0
    seen = []

    def counting(self, mask):
        nonlocal calls
        calls += 1
        return real_indep(self, mask)

    def path(m1, m2, w, elems, smask):
        nonlocal calls
        calls = 0
        got = real_path(m1, m2, w, elems, smask)
        inside = sum(1 for e in elems if smask >> e & 1)
        seen.append((calls, inside, len(elems) - inside))
        return got

    monkeypatch.setattr(Matroid, "independent_mask", counting)
    monkeypatch.setattr(oracles, "_best_augmenting_path", path)
    chain = B.mi_extreme_chain(m1, m2, w)
    assert len(chain) > 8
    for got, inside, outside in seen:
        assert got <= (0 if first == "uniform" else 2)
    assert any(2 * i * o > 4 * got for got, i, o in seen)


def test_mi_extreme_chain_breaks_label_ties_by_sequence(monkeypatch):
    # unit weights: from S = {0, 1, 2}, the walks (3, 2, 5) and
    # (4, 1, 5) both reach sink 5 with length -1 in 2 hops, and the
    # label at 5 must keep the lexicographically smaller one
    ends = {0: (1, 2), 1: (0, 1), 2: (1, 4), 3: (3, 4), 4: (0, 3), 5: (0, 4), 6: (3, 4)}
    m1 = B.GraphicMatroid(B.Graph(5, ends))
    m2 = B.PartitionMatroid(range(7), [[0, 1, 4], [2, 3, 6], [5]], [2, 1, 2])
    w = {e: F(1) for e in range(7)}
    assert oracles._best_augmenting_path(m1, m2, w, range(7), 0b111) == (F(-1), 2, (3, 2, 5))
    assert B.mi_extreme_chain(m1, m2, w) == _reference_chain(monkeypatch, m1, m2, w)


@pytest.mark.parametrize(
    "kinds", list(itertools.product(BI_KINDS, repeat=2)), ids="-".join
)
def test_mi_extreme_chain_from_a_base_is_the_contracted_chain(kinds):
    """The chain grown from a common independent set F's mask, over the
    elements outside F, is the chain of both matroids contracted by F
    and restricted to those elements."""
    grown = 0
    for n in range(4, 11):
        inst = B.random_bi(n, n=n, kinds=kinds)
        c = inst.constraint
        for pinned in list(walk_ids(inst, max_size=2))[1::2]:
            keep = [e for e in inst.ids if e not in pinned]
            m1 = Contraction(c.m1, pinned, keep)
            m2 = Contraction(c.m2, pinned, keep)
            for lam in (F(0), F(1, 2)):
                w = relaxation_weights(inst, lam, keep)
                chain = B.mi_extreme_chain(c.m1, c.m2, w, inst.mask_of(pinned))
                assert chain == B.mi_extreme_chain(m1, m2, w)
                grown += len(chain) > 1
    assert grown


def test_mi_extreme_chain_rejects_weights_on_the_base():
    m = B.UniformMatroid(range(3), 2)
    with pytest.raises(InputError):
        B.mi_extreme_chain(m, m, {0: F(1), 1: F(1)}, base=0b1)


def test_mi_extreme_chain_returns_on_non_matroid_family():
    # m1 breaks the exchange axiom ({0, 2, 4} cannot grow from
    # {0, 1, 3, 5}); its exchange graph has a negative cycle through 0,
    # 1, 2 and 5, the least walk repeats element 1, and the augmented
    # sets alternate between {2} and {0, 5} until the augmentation cap
    m1 = B.ExplicitMatroid(range(6), [[0, 2, 4], [0, 1, 3, 5]])
    m2 = B.ExplicitMatroid(range(6), [[0, 1, 3, 5], [1, 2, 3, 4, 5]])
    assert not B.axiom_check(m1).ok
    w = {0: F(5, 2), 1: F(2), 2: F(8), 3: F(2), 4: F(-2, 3), 5: F(6)}
    chain = B.mi_extreme_chain(m1, m2, w)
    assert chain[0] == frozenset()
    assert len(chain) <= 1 + sum(1 for e in w if w[e] > 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_common_independent_methods_agree(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    ground = tuple(range(n))
    m1 = random_matroid(rng, ground)
    m2 = random_matroid(rng, ground)
    w = {e: F(rng.randint(-2, 12)) for e in ground}
    best = F(0)
    for k in range(n + 1):
        for combo in itertools.combinations(ground, k):
            mask = sum(1 << e for e in combo)
            if m1.independent_mask(mask) and m2.independent_mask(mask):
                tw = sum((w[e] for e in combo), F(0))
                best = max(best, tw)
    for method in ("auto", "augmenting", "enumeration"):
        got = B.max_weight_common_independent(m1, m2, w, method=method)
        assert sum((w[e] for e in got), F(0)) == best


@pytest.mark.parametrize("bad", [2.5, True, "3", None])
def test_mi_weights_must_be_exact(bad):
    u = B.UniformMatroid(range(4), 2)
    p = B.PartitionMatroid(range(4), [[0, 1], [2, 3]], [1, 1])
    with pytest.raises(InputError, match="not an exact rational"):
        B.mi_extreme_chain(u, p, {0: 3, 1: bad})
    for method in ("auto", "augmenting", "enumeration"):
        with pytest.raises(InputError, match="not an exact rational"):
            B.max_weight_common_independent(u, p, {0: 3, 1: bad}, method=method)


def test_mi_methods_share_one_weights_contract():
    u = B.UniformMatroid(range(4), 2)
    p = B.PartitionMatroid(range(4), [[0, 1], [2, 3]], [1, 1])
    # a partial mapping: unweighted elements take no part in either method
    partial = {1: F(2), 3: 5}
    for method in ("augmenting", "enumeration"):
        assert B.max_weight_common_independent(u, p, partial, method=method) == {1, 3}
    # a weight off the ground set is the same error, naming the id
    for w in ({0: 1, 7: 1}, {0: 1, 7: 0}):
        for method in ("augmenting", "enumeration"):
            with pytest.raises(InputError, match="element 7 outside the ground set"):
                B.max_weight_common_independent(u, p, w, method=method)


@pytest.mark.parametrize(
    "weights",
    [{999: 0}, {999: F(-1), 0: 1}, {True: 1}, {1.0: 1}, {"a": 1, 0: 1}, {0: 1, None: 2}],
)
def test_relaxation_oracles_check_every_weight_key(weights):
    # each key is an int id (no bool) of the graph or the ground set,
    # checked before the sign of its weight drops it
    g = B.Graph(4, {0: (0, 1), 1: (1, 2), 2: (2, 3)})
    u = B.UniformMatroid(range(3), 2)
    with pytest.raises(InputError, match="weight on edge .* outside the graph"):
        B.max_weight_matching(g, weights)
    with pytest.raises(InputError, match="weight on element .* outside the ground set"):
        B.mi_extreme_chain(u, u, weights)


def test_common_independent_enumeration_gate():
    m = B.UniformMatroid(range(21), 3)
    with pytest.raises(CapacityError):
        B.max_weight_common_independent(m, m, {e: F(1) for e in range(21)},
                                        method="enumeration")


def test_check_exchange_set_accepts_construction(fig1):
    sstar, alpha = B.two_approx(fig1)
    x = B.exset_matching(fig1, F(1, 2), alpha, 2)
    rep = B.check_exchange_set(fig1, F(1, 2), alpha, 2, x)
    assert rep.ok and rep.witness is None
    assert rep.stats["deltas_checked"] > 0


def test_check_exchange_set_rejects_with_witness(fig1):
    rep = B.check_exchange_set(fig1, F(1, 2), F(11), 2, [0])
    assert not rep.ok
    assert rep.witness == {"delta": [1, 3], "a": 1}
    rep2 = B.check_exchange_set(fig1, F(1, 2), F(11), 2, [1])
    assert not rep2.ok
    assert rep2.witness == {"delta": [0, 2], "a": 0}


def test_check_representative_fig1(fig1):
    res = B.repset(fig1, F(1, 2))
    rep = B.check_representative(fig1, F(1, 2), res.union)
    assert rep.ok
    # a representative set may not drop a uniquely profitable element
    # when the target is positive
    rep2 = B.check_representative(fig1, F(1, 8), [2, 3])
    assert not rep2.ok
    assert rep2.witness is not None


def test_check_representative_rejects_inexact_epsilon(fig1):
    # a float ε made the target a binary fraction, 59447515081290545/2^53
    for bad in (0.1, True):
        with pytest.raises(InputError):
            B.check_representative(fig1, bad, [0, 1])


@pytest.mark.parametrize("eps", [F(-1), F(0), F(3, 4)])
def test_check_representative_rejects_epsilon_out_of_range(fig1, eps):
    # outside (0, 1/2] the (1-4ε) target is meaningless: ε = -1 made it
    # 5·OPT and ε = 2 made every candidate pass
    with pytest.raises(InputError, match="epsilon must be in"):
        B.check_representative(fig1, eps, [0, 1])


def test_check_representative_trivial_when_target_nonpositive(fig1):
    # at eps = 1/2 the (1-4eps) target is negative: anything passes
    rep = B.check_representative(fig1, F(1, 2), [])
    assert rep.ok

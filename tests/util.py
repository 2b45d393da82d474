"""Shared brute-force helpers; deliberately independent of the library's
own search code so they can serve as oracles for it.  The one exception
is `walk_ids`, a view of `iter_solutions` for tests that need only the
id tuples of its walk."""

import itertools
import random
from fractions import Fraction

import bcopt as B
from bcopt.errors import InputError


def walk_ids(inst, **kwargs):
    """The id tuples of `iter_solutions`' items, as lazily as the walk."""
    return (item[0] for item in B.iter_solutions(inst, **kwargs))


def bi_pairs(seed, n):
    """Partition matroid over pairs {2i, 2i+1} (capacity 1) ∩ U(n/4, n)."""
    rng = random.Random(seed)
    els = [B.Element(i, rng.randint(1, 20), rng.randint(1, 20)) for i in range(n)]
    m1 = B.PartitionMatroid(range(n), [[2 * i, 2 * i + 1] for i in range(n // 2)],
                            [1] * (n // 2))
    m2 = B.UniformMatroid(range(n), n // 4)
    total = sum(e.cost for e in els)
    return B.BCInstance(els, B.MatroidIntersectionConstraint(m1, m2), Fraction(total, 2))


class Contraction(B.Matroid):
    """The minor of parent contracted by the independent set pinned and
    restricted to keep: its ground set is keep, and a mask is
    independent iff mask | pinned is independent in parent."""

    kind = "contraction"

    def __init__(self, parent, pinned, keep):
        super().__init__(keep)
        if self.ground_mask & ~parent.ground_mask:
            raise InputError("keep leaves the parent's ground set")
        fmask = 0
        for e in pinned:
            fmask |= 1 << e
        if not parent.independent_mask(fmask):
            raise InputError("pinned set must be independent")
        self.parent = parent
        self.fmask = fmask

    def _indep_mask(self, mask):
        return self.parent.independent_mask(mask | self.fmask)


def all_independent_sets(matroid):
    ids = matroid.ground_list
    out = []
    for k in range(len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            mask = 0
            for e in combo:
                mask |= 1 << e
            if matroid.independent_mask(mask):
                out.append(frozenset(combo))
    return out


def explicit_copy(matroid):
    """Tabulate any small matroid into an ExplicitMatroid."""
    indep = set(all_independent_sets(matroid))
    maximal = [
        sorted(a)
        for a in indep
        if not any(e not in a and a | {e} in indep for e in matroid.ground_list)
    ]
    return B.ExplicitMatroid(matroid.ground_list, maximal)


def all_matchings(graph):
    ids = sorted(graph.edge_ids)
    for k in range(len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            if graph.is_matching(set(combo)):
                yield frozenset(combo)


def brute_max_weight(sets, weights):
    best = Fraction(0)
    for s in sets:
        w = sum((weights[e] for e in s), Fraction(0))
        if w > best:
            best = w
    return best


def random_graph(rng: random.Random, max_vertices: int = 10, max_edges: int = 12):
    nv = rng.randint(2, max_vertices)
    m = rng.randint(0, max_edges)
    ends = {}
    for e in range(m):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        while v == u:
            v = rng.randrange(nv)
        ends[e] = (u, v)
    return B.Graph(nv, ends)


def random_matroid(rng: random.Random, ground):
    n = len(ground)
    kind = rng.choice(["uniform", "partition", "graphic", "linear"])
    if kind == "uniform":
        return B.UniformMatroid(ground, rng.randint(0, n))
    if kind == "partition":
        bc = rng.randint(1, max(1, n // 2))
        assign = [rng.randrange(bc) for _ in ground]
        blocks, caps = [], []
        for b in range(bc):
            members = [e for e, a in zip(ground, assign) if a == b]
            if members:
                blocks.append(members)
                caps.append(rng.randint(1, 2))
        return B.PartitionMatroid(ground, blocks, caps)
    if kind == "graphic":
        v = rng.randint(2, 5)
        ends = {}
        for e in ground:
            u = rng.randrange(v)
            w = rng.randrange(v)
            while w == u:
                w = rng.randrange(v)
            ends[e] = (u, w)
        return B.GraphicMatroid(B.Graph(v, ends))
    dim = rng.randint(1, 4)
    cols = {e: [rng.randint(0, 1) for _ in range(dim)] for e in ground}
    return B.LinearMatroid(cols, 2)


def random_partition(rng: random.Random, ground, count: int, low: int, top: int):
    """A partition matroid over ground with at most count blocks, of
    capacities low..top."""
    block = {e: rng.randrange(count) for e in ground}
    groups = [[e for e in ground if block[e] == b] for b in range(count)]
    groups = [g for g in groups if g]
    return B.PartitionMatroid(ground, groups, [rng.randint(low, top) for _ in groups])


def opt_profit(inst) -> Fraction:
    return B.brute_force_opt(inst).profit


def reference_best_augmenting_path(m1, m2, w, elems, smask):
    """Reference for `oracles._best_augmenting_path`: a hop-layered
    search over simple paths that keeps, per hop count, the least
    (length, node sequence) entry per element, extended only to
    elements not yet on the path; the result is the least
    (length, hops, sequence) over the entries that end at a sink."""
    inside = [e for e in elems if smask & (1 << e)]
    outside = [e for e in elems if not smask & (1 << e)]
    x1 = [x for x in outside if m1.independent_mask(smask | (1 << x))]
    x2set = {x for x in outside if m2.independent_mask(smask | (1 << x))}
    if not x1 or not x2set:
        return None
    arcs = {e: [] for e in elems}
    for y in inside:
        swapped = smask ^ (1 << y)
        for x in outside:
            cand = swapped | (1 << x)
            if m1.independent_mask(cand):
                arcs[y].append(x)
            if m2.independent_mask(cand):
                arcs[x].append(y)
    length = {e: (w[e] if smask & (1 << e) else -w[e]) for e in elems}
    dp = {v: (length[v], (v,)) for v in sorted(x1)}
    best = None
    for hops in range(len(elems)):
        for v in sorted(dp):
            if v in x2set:
                cand = (dp[v][0], hops, dp[v][1])
                if best is None or cand < best:
                    best = cand
        nxt = {}
        for u in sorted(dp):
            base_len, base_path = dp[u]
            for v in arcs[u]:
                if v in base_path:
                    continue
                cand = (base_len + length[v], base_path + (v,))
                cur = nxt.get(v)
                if cur is None or cand < cur:
                    nxt[v] = cand
        dp = nxt
        if not dp:
            break
    return best


def dict_label_search(m1, m2, w, elems, smask):
    """Reference for `oracles._best_augmenting_path`: the label search
    as it stood before its lengths and labels moved into lists indexed
    by element id, kept verbatim apart from this docstring.  Labels are
    a dict, and each round lists the changed tails of every arc set
    afresh."""
    among = 0  # the elements in the set, which a swap can take out
    outside = 0
    for e in elems:
        if smask >> e & 1:
            among |= 1 << e
        else:
            outside |= 1 << e
    sources = m1.addable(smask, outside)
    sinks = m2.addable(smask, outside)
    if not sources or not sinks:
        return None
    # heads[M]: the x whose first-matroid swaps are M; tails[M]: the x
    # whose second-matroid swaps are M
    heads = m1.swap_classes(smask, outside, among)
    tails = m2.swap_classes(smask, outside, among)
    # (tails mask, ascending heads) of each distinct arc set
    arcs = [(t, _ids_of(h)) for t, h in heads.items() if t]
    arcs += [(t, _ids_of(h)) for h, t in tails.items() if h]
    length = {e: (w[e] if smask >> e & 1 else -w[e]) for e in elems}

    label = {v: (length[v], 0, (v,)) for v in _ids_of(sources)}
    changed = sources
    for _ in elems:
        touched = 0
        for tmask, hs in arcs:
            live = tmask & changed
            if not live:
                continue
            base_len, hops, seq = min(label[u] for u in _ids_of(live))
            hops += 1
            for v in hs:
                new_len = base_len + length[v]
                cur = label.get(v)
                if cur is not None and (
                    new_len > cur[0]
                    or new_len == cur[0]
                    and (hops > cur[1] or hops == cur[1] and seq + (v,) >= cur[2])
                ):
                    continue
                label[v] = (new_len, hops, seq + (v,))
                touched |= 1 << v
        if not touched:
            break
        changed = touched
    return min((label[x] for x in _ids_of(sinks) if x in label), default=None)


def _ids_of(mask):
    """The ascending ids of a mask's set bits, lowest bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def reference_residual(inst, pinned, pool):
    """The residual of a solution F = pinned of inst over a ground pool,
    built as an instance of its own, as the library did before it solved
    residuals in place: the pool elements outside F that F leaves
    feasible for a matching (every pool element outside F for matroids),
    the graph restricted to them or both matroids contracted by F and
    restricted to them, and the budget β − c(F).  It keeps inst's ids,
    Element objects, integer tables and scales, so its integers compare
    directly with inst's; BCInstance.__init__ never runs, as it would
    renumber the ids."""
    pinned = tuple(sorted(set(pinned)))
    c = inst.constraint
    if c.kind == "matching":
        covered = {v for e in pinned for v in c.graph.edge_ends[e]}
        keep = [e for e in pool if not covered & set(c.graph.edge_ends[e])]
        constraint = B.MatchingConstraint(c.graph.restrict(keep))
    else:
        keep = [e for e in pool if e not in pinned]
        constraint = B.MatroidIntersectionConstraint(
            Contraction(c.m1, pinned, keep), Contraction(c.m2, pinned, keep)
        )
    sub = object.__new__(B.BCInstance)
    sub._sp, sub._sc = inst._sp, inst._sc
    sub.int_profit, sub.int_cost = inst.int_profit, inst.int_cost
    sub.elements = tuple(inst.elements[e] for e in sorted(keep))
    sub.constraint = constraint
    sub.int_budget = inst.int_budget - sum(inst.int_cost[e] for e in pinned)
    sub.budget = Fraction(sub.int_budget, inst._sc)
    sub.ids = tuple(e.id for e in sub.elements)
    sub.id_set = frozenset(sub.ids)
    sub.profit = {e.id: e.profit for e in sub.elements}
    sub.cost = {e.id: e.cost for e in sub.elements}
    sub._cache = {}
    return sub


def reference_exhaustive_search(inst, pool, base, budget):
    """Reference for `oracles.exhaustive_search` with the bound it had
    before it read `room`: a depth-first walk of pool in ascending
    lexicographic order that cuts a branch when its profit plus the sum
    of every profit left in the pool cannot beat the incumbent (a
    non-strict cut, so the first of equally good sets wins)."""
    P = [inst.int_profit[e] for e in pool]
    C = [inst.int_cost[e] for e in pool]
    suffix = [0] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + P[i]
    step = inst.constraint.extend
    best = [0, ()]
    chosen = []

    def visit(start, state, p, c):
        if p > best[0]:
            best[:] = [p, tuple(chosen)]
        for j in range(start, len(pool)):
            if p + suffix[j] <= best[0]:
                break
            if c + C[j] > budget:
                continue
            child = step(state, pool[j])
            if child is not None:
                chosen.append(pool[j])
                visit(j + 1, child, p + P[j], c + C[j])
                chosen.pop()

    visit(0, base, 0, 0)
    return best[0], best[1]


def combination_search(inst, pool, pinned, budgets):
    """For each budget, the best (integer profit, sorted ids) set T of
    pool elements outside pinned with pinned ∪ T feasible and c(T) ≤ the
    budget (integer cost scale), ties to the lexicographically smallest
    ids, by trying every combination of each size; sizes stop at the
    first with no feasible set, budget ignored, as the families are
    hereditary."""
    fixed = inst.mask_of(pinned)
    pool = sorted(set(pool) - set(pinned))
    feasible = []
    for k in range(len(pool) + 1):
        found = False
        for combo in itertools.combinations(pool, k):
            if inst.constraint.feasible_mask(fixed | inst.mask_of(combo)):
                found = True
                feasible.append((sum(inst.int_cost[e] for e in combo),
                                 -sum(inst.int_profit[e] for e in combo), combo))
        if not found:
            break
    out = []
    for budget in budgets:
        neg, ids = min((neg, ids) for cost, neg, ids in feasible if cost <= budget)
        out.append((-neg, ids))
    return out


def reference_profit_classes(inst, eps, alpha):
    """The `Fraction` definition of `model.profit_classes`: class r holds
    the e with p(e) > εα and (1−ε)^r < p(e)/(2α) ≤ (1−ε)^(r−1), r from 1
    to `class_count_of(ε)`; empty classes are left out."""
    eps, alpha = Fraction(eps), Fraction(alpha)
    count = B.class_count_of(eps)
    classes = {}
    for e in inst.elements:
        if e.profit <= eps * alpha:
            continue
        ratio = e.profit / (2 * alpha)
        for r in range(1, count + 1):
            if (1 - eps) ** r < ratio <= (1 - eps) ** (r - 1):
                classes.setdefault(r, []).append(e.id)
                break
    return {r: tuple(sorted(v)) for r, v in sorted(classes.items())}

"""Exact reference solvers and combinatorial checkers.

Everything here is the slow, trustworthy side of the package: exhaustive
search with pruning, exact weighted matching (the blossom algorithm in
`bcopt.blossom`, whose tie-break among equally good matchings is pinned
in this package and equals networkx 3.6.1's), weighted matroid
intersection by augmenting paths, and the exchange-set /
representative-set definitions turned into decision procedures.

Every subset search runs on one walker, ``_walk(pool, extend, root,
limit, bound)``:

- pool: strictly ascending ids; a repeated id raises InputError.
- order: depth-first pre-order, which on sorted tuples is ascending
  lexicographic order: () first, each set before its extensions,
  (0, 2) before (1,).
- extend(state, j): the caller's state for the visited set plus
  pool[j], or None to prune pool[j] with its whole subtree (hereditary
  and budget pruning).
- bound(j, state): asked before extend; True cuts pool[j] and every
  later sibling.  The walk is lazy, so a bound may read an incumbent
  the caller updates while consuming it.  `exhaustive_search` bounds
  by the largest profits left in the pool, as many as the set has room
  for; `iter_solutions` asks its caller's cut at a set's first child
  only, so True drops all of its children (`repset.two_approx` cuts by
  the constraint's profit `bound`).
- limit: the largest set size.

Each visited set comes out as (prefix, state), prefix being a live list
of the chosen ids: copy it to keep it.  A caller that keeps the first
strict improvement breaks ties toward the lexicographically smallest id
set, the canonical (profit desc, lex ids asc) winner.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from . import blossom
from .errors import CapacityError, InputError
from .exchange import class_members
from .graphs import Graph, _is_int
from .matroids import Matroid, _ids_of
from .model import BCInstance, ProfitClassing, Solution, _check_epsilon


@dataclass(frozen=True)
class OracleReport:
    ok: bool
    witness: dict | None
    stats: dict


_State = TypeVar("_State")


def _walk(
    pool: Sequence[int],
    extend: Callable[[_State, int], _State | None],
    root: _State,
    limit: int | None = None,
    bound: Callable[[int, _State], bool] | None = None,
) -> Iterator[tuple[list[int], _State]]:
    """Pre-order subset walk over a sorted pool; see the module docstring."""
    if any(a >= b for a, b in zip(pool, pool[1:])):
        raise InputError("walk pool must be strictly ascending ids, without repeats")
    n = len(pool)
    if limit is None:
        limit = n
    chosen: list[int] = []

    def visit(start: int, state: _State) -> Iterator[tuple[list[int], _State]]:
        yield chosen, state
        if len(chosen) >= limit:
            return
        for j in range(start, n):
            if bound is not None and bound(j, state):
                break
            child = extend(state, j)
            if child is not None:
                chosen.append(pool[j])
                yield from visit(j + 1, child)
                chosen.pop()

    return visit(0, root)


_WalkState = tuple[int, int, int, int]


def exhaustive_search(
    inst: BCInstance, pool: Sequence[int], base: int, budget: int
) -> tuple[int, tuple[int, ...]]:
    """Best (integer profit, sorted ids) subset T of a pool that extends
    a pinned set: feasible together with it and of cost ≤ budget.

    base is the pinned set's walk state (`constraint.state_of`); budget
    is on the instance's integer cost scale.  Prunes by budget, by the
    hereditary property (supersets of an infeasible set are never
    visited) and by room: a set d elements past base has room for at
    most k − d more, k = `room(base)`, so from pool index j on it gains
    at most the k − d largest profits of pool[j:].  The cut is
    non-strict, so ties resolve to the lexicographically smallest id
    set."""
    P = [inst.int_profit[e] for e in pool]
    C = [inst.int_cost[e] for e in pool]
    constraint = inst.constraint
    step = constraint.extend
    k = max(constraint.room(base), 0)
    # top[j][r]: the sum of the r largest profits in pool[j:], r = 0..k
    top = [[0] * (k + 1)] * (len(pool) + 1)
    largest: list[int] = []  # ascending: the k largest profits from j on
    for j in range(len(pool) - 1, -1, -1):
        insort(largest, P[j])
        if len(largest) > k:
            del largest[0]
        row = [0, *accumulate(reversed(largest))]
        top[j] = row + row[-1:] * (k + 1 - len(row))

    # state: (constraint state, profit, cost, room left)
    def extend(state: _WalkState, j: int) -> _WalkState | None:
        s, p, c, left = state
        c += C[j]
        if c > budget:
            return None
        s = step(s, pool[j])
        return None if s is None else (s, p + P[j], c, left - 1)

    best_p = 0
    best: tuple[int, ...] = ()

    def bound(j: int, state: _WalkState) -> bool:
        return state[1] + top[j][state[3]] <= best_p

    for prefix, (_, p, _, _) in _walk(pool, extend, (base, 0, 0, k), bound=bound):
        if p > best_p:
            best_p = p
            best = tuple(prefix)
    return best_p, best


def brute_force_opt(inst: BCInstance, max_n: int = 24) -> Solution:
    """Exact optimum: `exhaustive_search` over every element, gated at
    max_n elements and cached on the instance."""
    if inst.n > max_n:
        raise CapacityError(f"brute force over {inst.n} elements (bound {max_n})")
    cached = inst._cache.get("brute_opt")
    if cached is not None:
        return cached
    base = inst.constraint.state_of(())
    _, best = exhaustive_search(inst, inst.ids, base, inst.int_budget)
    sol = Solution.of(inst, best)
    inst._cache["brute_opt"] = sol
    return sol


def iter_solutions(
    inst: BCInstance,
    candidates: Sequence[int] | None = None,
    max_size: int | None = None,
    cut: Callable[[int, int, int], bool] | None = None,
) -> Iterator[tuple]:
    """Yield every feasible-and-within-budget subset of the candidate
    ids (default: all elements), in ascending lexicographic order,
    starting with the empty set.  Hereditary pruning keeps the walk
    proportional to the number of feasible sets.  The candidates are a
    set: an unknown or repeated id raises InputError.

    Each item is (ids, state, cost, profit): the set's sorted id tuple,
    its walk state (`constraint.state_of` of it) and its integer cost
    and profit, which the walk carries anyway, so a caller need not
    recompute them.

    cut(state, cost, profit), when given, is asked once for each yielded
    set that may have children, after the caller has consumed it, with
    the same three values; True drops every child of the set, so the
    walk yields an ordered subsequence of the uncut one."""
    pool = sorted(inst.ids if candidates is None else candidates)
    for e in pool:
        if e not in inst.id_set:
            raise InputError(f"unknown element id: {e!r}")
    cost = inst.int_cost
    profit = inst.int_profit
    budget = inst.int_budget
    constraint = inst.constraint
    step = constraint.extend

    # state: (constraint state, cost, profit, pool index of the first child)
    def extend(state: _WalkState, j: int) -> _WalkState | None:
        s, c, p, _ = state
        e = pool[j]
        c += cost[e]
        if c > budget:
            return None
        s = step(s, e)
        return None if s is None else (s, c, p + profit[e], j + 1)

    def bound(j: int, state: _WalkState) -> bool:
        # the walk asks first at the first child; at a later sibling the
        # cut has already let the children through
        return j == state[3] and cut(*state[:3])

    root = (constraint.state_of(()), 0, 0, 0)
    walk = _walk(pool, extend, root, max_size, None if cut is None else bound)
    return ((tuple(prefix), s, c, p) for prefix, (s, c, p, _) in walk)


def max_weight_matching(
    graph: Graph, weights: Mapping[int, int | Fraction]
) -> frozenset[int]:
    """A maximum-weight matching (edge ids) over the edges that have a
    weight, for int or Fraction weights keyed by edge ids of the graph.

    Weights are scaled to integers by the lcm of their denominators
    before the blossom runs, so it works on exact integers throughout.
    Non-positive-weight edges never help a maximum and are dropped;
    parallel edges collapse to their (max weight, min id)
    representative.  The tie-break among equally good matchings is the
    blossom's: `bcopt.blossom` scans the collapsed edges in ascending
    vertex-pair order, and picks the matching networkx 3.6.1's
    ``max_weight_matching`` picks on a graph built in that order.
    """
    _check_weights(graph.edge_ends.keys(), weights, "edge", "the graph")
    ends = graph.edge_ends
    rep: dict[tuple[int, int], tuple[int | Fraction, int]] = {}
    for e, w in sorted(weights.items()):
        if w > 0:
            pair = ends[e]
            cur = rep.get(pair)
            if cur is None or w > cur[0]:
                rep[pair] = (w, e)
    reps = sorted(rep.items())
    scale = math.lcm(*(w.denominator for _, (w, _) in reps))
    edges = [(u, v, int(w * scale)) for (u, v), (w, _) in reps]
    pairs = blossom.max_weight_matching(graph.num_vertices, edges)
    return frozenset(rep[pair][1] for pair in pairs)


def _check_weights(
    ids: AbstractSet[int], weights: Mapping[int, int | Fraction], what: str, where: str
) -> None:
    """The weights contract of both relaxation oracles and both
    common-independent-set methods: exact rationals keyed by int ids
    (no bool) in ids; an id without a weight takes no part.  Every key
    is checked, whatever the sign of its weight."""
    # the common case, int keys in ids and int or Fraction weights,
    # passes three set tests without a Python loop
    if (
        {*map(type, weights)} <= {int}
        and weights.keys() <= ids
        and {*map(type, weights.values())} <= {int, Fraction}
    ):
        return
    for e, w in weights.items():
        if not _is_int(e) or e not in ids:
            raise InputError(f"weight on {what} {e!r} outside {where}")
        if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
            raise InputError(f"{what} {e}: weight {w!r} is not an exact rational")


def mi_extreme_chain(
    m1: Matroid, m2: Matroid, weights: Mapping[int, int | Fraction], base: int = 0
) -> list[frozenset[int]]:
    """Chain of maximum-weight common independent sets, one per size,
    grown by shortest augmenting paths in the exchange graph.

    Returns [S_0, S_1, ..., S_k] where S_i is a max-weight common
    independent set of size i and S_k is the overall maximum (growth
    stops when the best augmenting path no longer gains weight).  Weights
    are int or Fraction on ground elements, else InputError; only
    elements with a positive weight take part.  base is the element mask
    of a common independent set F that every set extends: the chain is
    that of the two matroids contracted by F, and its sets leave F out.
    Each augmentation adds one element, so capping them at len(elems)
    binds only off matroids, whose walks may repeat elements.
    """
    if m1.ground != m2.ground:
        raise InputError("the two matroids must share a ground set")
    _check_weights(m1.ground, weights, "element", "the ground set")
    elems = [e for e in sorted(weights) if weights[e] > 0]
    if any(base >> e & 1 for e in elems):
        raise InputError("weighted elements must lie outside the base set")
    smask = base
    chain = [frozenset()]
    for _ in elems:
        step = _best_augmenting_path(m1, m2, weights, elems, smask)
        if step is None:
            break
        length, _, seq = step
        if length >= 0:
            break
        for v in seq:
            smask ^= 1 << v
        chain.append(frozenset(_ids_of(smask & ~base)))
    return chain


def _best_augmenting_path(
    m1: Matroid,
    m2: Matroid,
    w: Mapping[int, Fraction],
    elems: Sequence[int],
    smask: int,
) -> tuple[Fraction, int, tuple[int, ...]] | None:
    """Minimum (total length, hop count, lexicographic node sequence)
    source→sink walk in the exchange graph of the current set, whose
    mask smask also holds any base set outside elems.

    Node length is −w outside the set, +w inside; sources are elements
    addable in the first matroid, sinks addable in the second, each
    list one `Matroid.addable` call.  The min-length min-hop choice is
    what keeps the augmented set extreme.

    The arcs come from one `Matroid.swap_classes` call per matroid,
    which groups the x outside the set by their swaps: y → x when
    S − y + x is independent in the first matroid, x → y when it is in
    the second.  They are kept as head sets, each shared by a set of
    tails: the x whose first-matroid mask is M are the heads of every y
    in M, and the members of x's own second-matroid mask are the heads
    of every x with that mask.  Uniform and partition matroids give a
    handful of distinct masks, in closed form.

    Each element keeps one label, the least key over the walks from a
    source to it, relaxed in rounds over changed labels.  In a round,
    each head set is relaxed from the least-labelled of its changed
    tails only: any other tail u' loses to that tail u at every head v,
    since both add v's length and one hop, and when the lengths and
    hops tie, the sequences of u and u' have one length, so appending v
    to both keeps seq(u) < seq(u').  The labels therefore settle at the
    least walk keys, the same as when every arc is relaxed.  The chain's
    sets are extreme, so there is no negative cycle: the least walk to
    a sink is a simple path (cutting out a cycle never lengthens a walk
    and saves hops) whose prefixes are least walks; a hop-layered search
    over simple paths keeping the least entry per element per hop
    therefore picks it too.  Labels settle within len(elems) − 1
    rounds; the cap only ends the search off matroids.

    Lengths and labels are lists indexed by element id.  Each head set
    is listed once per call; a round lists the changed tails of an arc
    set, tmask & changed, only when it has some.
    """
    # node lengths, indexed by element id; among: the elements in the
    # set, which a swap can take out
    length = [0] * (max(elems) + 1)
    among = outside = 0
    for e in elems:
        if smask >> e & 1:
            among |= 1 << e
            length[e] = w[e]
        else:
            outside |= 1 << e
            length[e] = -w[e]
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

    label: list = [None] * len(length)
    for v in _ids_of(sources):
        label[v] = (length[v], 0, (v,))
    changed = sources
    for _ in elems:
        touched = 0
        for tmask, hs in arcs:
            live = tmask & changed
            if not live:
                continue
            base_len, hops, seq = min([label[u] for u in _ids_of(live)])
            hops += 1
            for v in hs:
                new_len = base_len + length[v]
                cur = label[v]
                # the key (length, hops, sequence) against v's label,
                # field by field, since a Fraction comparison is a Python
                # call; a candidate that loses on (length, hops) builds
                # no sequence
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
    return min([label[x] for x in _ids_of(sinks) if label[x]], default=None)


MAX_ENUM = 20


def max_weight_common_independent(
    m1: Matroid,
    m2: Matroid,
    weights: Mapping[int, int | Fraction],
    method: str = "auto",
) -> frozenset[int]:
    """A maximum-weight common independent set of two matroids.

    method="augmenting" (the default under "auto") runs the exchange
    graph algorithm; method="enumeration" exhaustively checks all
    common independent sets (n ≤ MAX_ENUM, canonical lex tie-break) and
    exists as the independent cross-check.  Both take weights as
    `mi_extreme_chain` does: exact, on ground elements, and an element
    without a weight takes no part.
    """
    if m1.ground != m2.ground:
        raise InputError("the two matroids must share a ground set")
    if method in ("auto", "augmenting"):
        return mi_extreme_chain(m1, m2, weights)[-1]
    if method != "enumeration":
        raise InputError(f"unknown method {method!r}")
    _check_weights(m1.ground, weights, "element", "the ground set")
    n = len(m1.ground_list)
    if n > MAX_ENUM:
        raise CapacityError(f"enumeration over {n} elements (bound {MAX_ENUM})")
    pool = [e for e in m1.ground_list if weights.get(e, 0) > 0]

    def extend(state: tuple[int, int | Fraction], j: int) -> tuple | None:
        mask, acc = state
        e = pool[j]
        cand = mask | (1 << e)
        if not (m1.independent_mask(cand) and m2.independent_mask(cand)):
            return None
        return cand, acc + weights[e]

    best_w = 0
    best: tuple[int, ...] = ()
    for prefix, (_, acc) in _walk(pool, extend, (0, 0)):
        if acc > best_w:
            best_w = acc
            best = tuple(prefix)
    return frozenset(best)


def check_exchange_set(
    inst: BCInstance,
    eps: Fraction,
    alpha: Fraction,
    r: int,
    exchange_set: Iterable[int],
    classing: ProfitClassing | None = None,
    max_n: int = 24,
) -> OracleReport:
    """Decide whether X is an exchange set for profit class r.

    Checks the definition literally: for every constraint-feasible set
    Δ with |Δ| ≤ q_eff (budget ignored) and every a ∈ (Δ ∩ K_r) \\ X,
    some b ∈ (K_r ∩ X) \\ Δ has c(b) ≤ c(a) and Δ − a + b feasible.
    """
    if inst.n > max_n:
        raise CapacityError(f"exchange check over {inst.n} elements (bound {max_n})")
    params, _, members = class_members(inst, eps, alpha, r, classing)
    members = set(members)
    xset = set(exchange_set)
    if not xset <= inst.id_set:
        raise InputError("exchange set contains unknown element ids")
    if not xset <= members:
        raise InputError("exchange set must be a subset of the profit class")
    q = params.q_eff
    cost = inst.int_cost
    swap_pool = sorted(xset, key=lambda b: (cost[b], b))
    constraint = inst.constraint
    deltas = 0
    probes = 0

    def covered(delta_mask: int, delta: list[int]) -> dict | None:
        nonlocal probes
        for a in delta:
            if a not in members or a in xset:
                continue
            ca = cost[a]
            found = False
            for b in swap_pool:
                if cost[b] > ca:
                    break
                bb = 1 << b
                if delta_mask & bb:
                    continue
                probes += 1
                if constraint.feasible_mask((delta_mask ^ (1 << a)) | bb):
                    found = True
                    break
            if not found:
                return {"delta": list(delta), "a": a}
        return None

    def extend(mask: int, j: int) -> int | None:
        cand = mask | (1 << inst.ids[j])
        return cand if constraint.feasible_mask(cand) else None

    witness: dict | None = None
    for delta, mask in _walk(inst.ids, extend, 0, limit=q):
        deltas += 1
        witness = covered(mask, delta)
        if witness is not None:
            break
    ok = witness is None
    return OracleReport(
        ok=ok,
        witness=witness,
        stats={"deltas_checked": deltas, "swap_probes": probes, "q_eff": q},
    )


def check_representative(
    inst: BCInstance,
    eps: Fraction,
    rep: Iterable[int],
    max_n: int = 24,
) -> OracleReport:
    """Decide whether R is a representative set: some solution avoiding
    the profitable non-members (profit > ε·OPT) reaches (1−4ε)·OPT."""
    eps = _check_epsilon(eps)
    if inst.n > max_n:
        raise CapacityError(
            f"representative check over {inst.n} elements (bound {max_n})"
        )
    rset = set(rep)
    if not rset <= inst.id_set:
        raise InputError("representative set contains unknown element ids")
    opt = brute_force_opt(inst, max_n)
    target = (1 - 4 * eps) * opt.profit
    heavy = {e.id for e in inst.elements if e.profit > eps * opt.profit}
    allowed = sorted((inst.id_set - heavy) | (rset & heavy))
    stats = {
        "opt": str(opt.profit),
        "target": str(target),
        "heavy": len(heavy),
        "allowed": len(allowed),
    }
    if target <= 0:
        return OracleReport(ok=True, witness=None, stats=stats)

    # on the integer profit scale: p(S) ≥ target exactly when the scaled
    # p(S) reaches ⌈(1−4ε)·(scaled OPT)⌉
    need = math.ceil((1 - 4 * eps) * sum(inst.int_profit[e] for e in opt.ids))
    best, best_ids = 0, ()
    ok = False
    for prefix, _, _, p in iter_solutions(inst, candidates=allowed):
        if p > best:
            best, best_ids = p, prefix
        if p >= need:
            ok = True
            break
    stats["best_found"] = str(inst.profit_of(best_ids))
    return OracleReport(ok=ok, witness=None if ok else dict(stats), stats=stats)

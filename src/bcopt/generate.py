"""Seeded instance generators and the fixed corpus schedule.

Identical parameters and seed produce identical instances bit-for-bit
(random.Random is stable across platforms for the operations used).
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import InputError
from .graphs import Graph, _is_int
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)
from .model import (
    BCInstance,
    Element,
    MatchingConstraint,
    MatroidIntersectionConstraint,
)

BI_KINDS = ("uniform", "partition", "graphic", "explicit")


def random_bm(
    seed: int,
    n_vertices: int = 8,
    edge_prob: Fraction = Fraction(1, 2),
    profit_range: tuple[int, int] = (1, 20),
    cost_range: tuple[int, int] = (1, 20),
    budget_fraction: Fraction = Fraction(1, 2),
    max_edges: int | None = None,
) -> BCInstance:
    """Random budgeted-matching instance.

    Each vertex pair (scanned in sorted order) becomes an edge with the
    given probability; when max_edges is set, later pairs are dropped
    once the quota is full.  Budget = budget_fraction × total cost.
    """
    _check_common(seed, profit_range, cost_range, budget_fraction)
    if not _is_int(n_vertices) or n_vertices < 0:
        raise InputError(f"n_vertices must be an int ≥ 0, got {n_vertices!r}")
    # floats pass too: the draw below reads the probability as a float
    if type(edge_prob) not in (int, float, Fraction) or not 0 <= edge_prob <= 1:
        raise InputError(f"edge_prob must be a number in [0, 1], got {edge_prob!r}")
    if max_edges is not None and (not _is_int(max_edges) or max_edges < 1):
        raise InputError(f"max_edges must be at least 1, got {max_edges!r}")
    rng = random.Random(seed)
    p = float(edge_prob)
    ends = {}
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            if rng.random() < p:
                if max_edges is not None and len(ends) >= max_edges:
                    continue
                ends[len(ends)] = (u, v)
    elements = _random_elements(rng, len(ends), profit_range, cost_range)
    budget = budget_fraction * sum([e.cost.numerator for e in elements])
    return BCInstance(elements, MatchingConstraint(Graph(n_vertices, ends)), budget)


def random_bi(
    seed: int,
    n: int = 8,
    kinds: tuple[str, str] = ("uniform", "partition"),
    profit_range: tuple[int, int] = (1, 20),
    cost_range: tuple[int, int] = (1, 20),
    budget_fraction: Fraction = Fraction(1, 2),
) -> BCInstance:
    """Random budgeted matroid-intersection instance over n elements."""
    _check_common(seed, profit_range, cost_range, budget_fraction)
    if not _is_int(n) or n < 1:
        raise InputError(f"n must be an int ≥ 1, got {n!r}")
    if not isinstance(kinds, (tuple, list)) or len(kinds) != 2:
        raise InputError(f"kinds must name two matroid kinds, got {kinds!r}")
    for kind in kinds:
        if kind not in BI_KINDS:
            raise InputError(f"unknown matroid kind {kind!r}")
    rng = random.Random(seed)
    ground = tuple(range(n))
    m1 = _random_matroid(rng, ground, kinds[0])
    m2 = _random_matroid(rng, ground, kinds[1])
    elements = _random_elements(rng, n, profit_range, cost_range)
    budget = budget_fraction * sum([e.cost.numerator for e in elements])
    return BCInstance(elements, MatroidIntersectionConstraint(m1, m2), budget)


def _check_common(
    seed: int,
    profit_range: tuple[int, int],
    cost_range: tuple[int, int],
    budget_fraction: Fraction,
) -> None:
    # random.Random(None) seeds from the clock; a bool seed reads as 0 or 1
    if seed is None or isinstance(seed, bool):
        raise InputError(f"bad seed {seed!r}")
    for name, pair in (("profit_range", profit_range), ("cost_range", cost_range)):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and _is_int(pair[0]) and _is_int(pair[1]) and 0 <= pair[0] <= pair[1]):
            raise InputError(f"{name} must be a pair of ints 0 ≤ lo ≤ hi, got {pair!r}")
    if type(budget_fraction) not in (int, Fraction) or budget_fraction < 0:
        raise InputError(f"budget_fraction must be a rational ≥ 0, got {budget_fraction!r}")


def _random_elements(
    rng: random.Random,
    n: int,
    profit_range: tuple[int, int],
    cost_range: tuple[int, int],
) -> list[Element]:
    frac = functools.cache(Fraction)  # one object per drawn value
    return [
        Element(i, frac(rng.randint(*profit_range)), frac(rng.randint(*cost_range)))
        for i in range(n)
    ]


def _random_matroid(rng: random.Random, ground: Sequence[int], kind: str) -> Matroid:
    n = len(ground)
    if kind == "uniform":
        return UniformMatroid(ground, rng.randint(1, n))
    if kind == "partition":
        block_count = rng.randint(1, max(1, n // 2))
        assignment = [rng.randrange(block_count) for _ in ground]
        blocks = []
        caps = []
        for b in range(block_count):
            members = [e for e, a in zip(ground, assignment) if a == b]
            if members:
                blocks.append(members)
                caps.append(rng.randint(1, 2))
        return PartitionMatroid(ground, blocks, caps)
    if kind == "graphic":
        v = rng.randint(2, 5)
        ends = {}
        for e in ground:
            u = rng.randrange(v)
            w = rng.randrange(v)
            while w == u:
                w = rng.randrange(v)
            ends[e] = (u, w)
        return GraphicMatroid(Graph(v, ends))
    if kind == "explicit":
        # explicit oracles must still be matroids: tabulate a random
        # binary linear matroid, which always satisfies the axioms
        dim = rng.randint(2, max(2, min(n, 4)))
        cols = {e: [rng.randint(0, 1) for _ in range(dim)] for e in ground}
        base = LinearMatroid(cols, 2)
        maximal = _maximal_independent_sets(base)
        return ExplicitMatroid(ground, maximal)
    raise InputError(f"unknown matroid kind {kind!r}")


def _maximal_independent_sets(matroid: Matroid) -> list[list[int]]:
    """The bases of a matroid, in ascending order: a matroid's maximal
    independent sets are exactly its independent sets of `full_rank`
    size, so only the sets of that size are tried."""
    return [
        list(c)
        for c in combinations(matroid.ground_list, matroid.full_rank())
        if matroid.independent_mask(sum(1 << e for e in c))
    ]


_EDGE_PROBS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
_BUDGET_FRACTIONS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
_BI_KIND_PAIRS = (
    ("uniform", "uniform"),
    ("uniform", "partition"),
    ("uniform", "graphic"),
    ("uniform", "explicit"),
    ("partition", "partition"),
    ("partition", "graphic"),
    ("partition", "explicit"),
    ("graphic", "graphic"),
    ("graphic", "explicit"),
    ("explicit", "explicit"),
)


def corpus_bm(index: int) -> BCInstance:
    """Instance index → fixed BM corpus entry (≤ 8 vertices, ≤ 14 edges,
    integer profits/costs ≤ 20)."""
    if index < 0:
        raise InputError("corpus index must be nonnegative")
    return random_bm(
        seed=1000 + index,
        n_vertices=4 + index % 5,
        edge_prob=_EDGE_PROBS[index % 3],
        profit_range=(1, 20),
        cost_range=(1, 20),
        budget_fraction=_BUDGET_FRACTIONS[index % 3],
        max_edges=14,
    )


def corpus_bi(index: int) -> BCInstance:
    """Instance index → fixed BI corpus entry (n ≤ 10, matroid kind
    pairs cycling through all combinations)."""
    if index < 0:
        raise InputError("corpus index must be nonnegative")
    return random_bi(
        seed=2000 + index,
        n=4 + index % 7,
        kinds=_BI_KIND_PAIRS[index % 10],
        profit_range=(1, 20),
        cost_range=(1, 20),
        budget_fraction=_BUDGET_FRACTIONS[index % 3],
    )

"""Matroid oracles: concrete families, greedy bases, and an axiom checker.

Ground elements are non-negative integer ids; independence queries go
through bitmasks with bit position = element id, so a mask means the same
set in every matroid over those ids.  An oracle answers each query from
its definition and keeps no per-query state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .graphs import Graph, _is_int


def _mask_of(ids: Iterable[int], distinct: bool = False) -> int:
    """The bitmask of ids.  Raises InputError unless ids is iterable and
    every id is a non-negative int (no bool), and, when distinct is set,
    on an id listed twice."""
    try:
        ids = iter(ids)
    except TypeError:
        raise InputError(f"expected a list of element ids, got {ids!r}") from None
    m = 0
    for e in ids:
        if not _is_int(e) or e < 0:
            raise InputError(f"bad element id: {e!r}")
        bit = 1 << e
        if distinct and m & bit:
            raise InputError(f"duplicate element id: {e}")
        m |= bit
    return m


# the set bits of each byte value, ascending, built by doubling
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _b in range(8):
    _BYTE_BITS += [bits + (_b,) for bits in _BYTE_BITS]


def _ids_of(mask: int) -> tuple[int, ...]:
    """The ids of a mask's set bits, ascending, read a byte at a time."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return tuple([8 * i + b for i, x in enumerate(data) if x for b in _BYTE_BITS[x]])


class Matroid:
    """Base oracle: a ground set of ids plus an independence predicate.

    Subclasses implement _indep_mask, which independent_mask calls on
    every mask inside the ground set.

    swaps(smask, x, among) lists the exchange-graph arcs at an element x
    outside smask: the bits y of among (a subset of smask) for which
    smask − y + x is independent.  It asks one independence query per y
    and assumes no heredity, so it holds for any family.

    swap_classes(smask, outside, among) groups the bits x of outside
    (disjoint from smask) by their swaps: {M: the mask of the x whose
    swaps(smask, x, among) is M}, keys in the order of their least x.
    The default calls swaps once per x; an override must return exactly
    what that loop returns, key order included, for every smask,
    dependent ones included.

    addable(smask, among) lists the elements that extend smask: the
    bits x of among (disjoint from smask) for which smask + x is
    independent.  The default asks one independence query per x; an
    override must likewise return exactly what that loop returns, for
    every smask, dependent ones included.
    """

    kind = "abstract"

    def __init__(self, ground: Iterable[int]):
        self.ground_mask: int = _mask_of(ground)
        self.ground_list: tuple[int, ...] = _ids_of(self.ground_mask)
        self.ground: frozenset[int] = frozenset(self.ground_list)

    def is_independent(self, ids: Iterable[int]) -> bool:
        return self.independent_mask(_mask_of(ids))

    def independent_mask(self, mask: int) -> bool:
        if mask & ~self.ground_mask:
            raise InputError("mask has bits outside the ground set")
        return self._indep_mask(mask)

    def _indep_mask(self, mask: int) -> bool:
        raise NotImplementedError

    def swaps(self, smask: int, x: int, among: int) -> int:
        xbit = 1 << x
        out = 0
        rest = among
        while rest:
            low = rest & -rest
            rest ^= low
            if self.independent_mask((smask ^ low) | xbit):
                out |= low
        return out

    def swap_classes(self, smask: int, outside: int, among: int) -> dict[int, int]:
        out: dict[int, int] = {}
        rest = outside
        while rest:
            low = rest & -rest
            rest ^= low
            m = self.swaps(smask, low.bit_length() - 1, among)
            out[m] = out.get(m, 0) | low
        return out

    def addable(self, smask: int, among: int) -> int:
        out = 0
        rest = among
        while rest:
            low = rest & -rest
            rest ^= low
            if self.independent_mask(smask | low):
                out |= low
        return out

    def full_rank(self) -> int:
        """An upper bound on the size of every independent set: the size
        of a greedy basis, exact on a matroid, where every maximal
        independent set is a basis.  ExplicitMatroid overrides it so
        that it bounds families that are no matroid."""
        chosen = 0
        for e in self.ground_list:
            if self.independent_mask(chosen | (1 << e)):
                chosen |= 1 << e
        return chosen.bit_count()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind} n={len(self.ground)}>"


class UniformMatroid(Matroid):
    kind = "uniform"

    def __init__(self, ground: Iterable[int], rank: int):
        super().__init__(ground)
        if not _is_int(rank) or rank < 0:
            raise InputError(f"bad rank: {rank!r}")
        self.rank = rank

    def _indep_mask(self, mask: int) -> bool:
        return mask.bit_count() <= self.rank

    def swap_classes(self, smask: int, outside: int, among: int) -> dict[int, int]:
        # every swap keeps the size of smask
        if not outside:
            return {}
        return {among if smask.bit_count() <= self.rank else 0: outside}

    def addable(self, smask: int, among: int) -> int:
        return among if smask.bit_count() < self.rank else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniformMatroid):
            return NotImplemented
        return self.ground == other.ground and self.rank == other.rank


class PartitionMatroid(Matroid):
    """Independent = at most capacity[i] elements from block i.
    Blocks must partition the ground set exactly."""

    kind = "partition"

    def __init__(
        self,
        ground: Iterable[int],
        blocks: Sequence[Iterable[int]],
        capacities: Sequence[int],
    ):
        super().__init__(ground)
        if len(blocks) != len(capacities):
            raise InputError("blocks and capacities differ in length")
        block_masks: list[int] = []
        seen = 0
        for i, blk in enumerate(blocks):
            bm = _mask_of(blk, distinct=True)
            if bm & ~self.ground_mask:
                raise InputError(f"block {i} leaves the ground set")
            if bm & seen:
                raise InputError(f"block {i} overlaps an earlier block")
            seen |= bm
            cap = capacities[i]
            if not _is_int(cap) or cap < 0:
                raise InputError(f"bad capacity: {cap!r}")
            block_masks.append(bm)
        if seen != self.ground_mask:
            raise InputError("blocks do not cover the ground set")
        self.blocks = tuple(frozenset(_ids_of(bm)) for bm in block_masks)
        self.capacities = tuple(capacities)
        # (block mask, capacity) of each element, indexed by id
        self._block_of = [(0, 0)] * (max(self.ground_list, default=-1) + 1)
        for bm, cap in zip(block_masks, self.capacities):
            for e in _ids_of(bm):
                self._block_of[e] = (bm, cap)

    def _indep_mask(self, mask: int) -> bool:
        # only the blocks mask touches: each pass takes one whole block out
        block_of = self._block_of
        rest = mask
        while rest:
            bm, cap = block_of[rest.bit_length() - 1]
            hit = rest & bm
            if hit.bit_count() > cap:
                return False
            rest ^= hit
        return True

    def swap_classes(self, smask: int, outside: int, among: int) -> dict[int, int]:
        if not self.independent_mask(smask):
            return super().swap_classes(smask, outside, among)
        # smask fits every block; an x's block either has room, or is
        # full and only a swap inside it keeps it in capacity, so the x
        # of one block share their swaps.  Blocks come in the order of
        # their least x, as do the keys.
        block_of = self._block_of
        out: dict[int, int] = {}
        rest = outside
        while rest:
            bm, cap = block_of[(rest & -rest).bit_length() - 1]
            hit = rest & bm
            m = among if (smask & bm).bit_count() < cap else among & bm
            out[m] = out.get(m, 0) | hit
            rest ^= hit
        return out

    def addable(self, smask: int, among: int) -> int:
        if not self.independent_mask(smask):
            return super().addable(smask, among)
        # smask fits every block; x extends it when x's block has room,
        # so among's bits pass or fail a whole block at a time
        block_of = self._block_of
        out = 0
        rest = among
        while rest:
            bm, cap = block_of[rest.bit_length() - 1]
            hit = rest & bm
            if (smask & bm).bit_count() < cap:
                out |= hit
            rest ^= hit
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionMatroid):
            return NotImplemented
        # blocks are unordered as a family
        return self.ground == other.ground and sorted(
            (sorted(b), c) for b, c in zip(self.blocks, self.capacities)
        ) == sorted((sorted(b), c) for b, c in zip(other.blocks, other.capacities))


class GraphicMatroid(Matroid):
    """Ground = edge ids of a graph; independent = acyclic edge sets."""

    kind = "graphic"

    def __init__(self, graph: Graph):
        super().__init__(graph.edge_ids)
        self.graph = graph

    def _indep_mask(self, mask: int) -> bool:
        # union-find over the vertices, with path halving
        parent = list(range(self.graph.num_vertices))
        ends = self.graph.edge_ends
        for e in _ids_of(mask):
            u, v = ends[e]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                return False
            parent[u] = v
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphicMatroid):
            return NotImplemented
        return self.graph == other.graph


# the first thirteen primes, the Miller–Rabin bases that decide
# primality exactly below _PRIME_LIMIT, the least strong pseudoprime to
# all of them; no larger field order is accepted
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for 2 ≤ n < _PRIME_LIMIT."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class LinearMatroid(Matroid):
    """Columns of a matrix; independent = linearly independent columns.

    field is "Q" for the rationals or an integer prime p for GF(p).
    `columns` keeps the entries as given (Fractions over Q, residues mod
    p); elimination runs on integer copies, each Q column scaled by the
    least common multiple of its denominators, which keeps independence.
    """

    kind = "linear"

    def __init__(
        self,
        columns: Mapping[int, Sequence[Fraction | int]],
        field: str | int = "Q",
    ):
        super().__init__(columns.keys())
        if field == "Q":
            self.field: str | int = "Q"
        elif isinstance(field, int) and field >= 2:
            if field >= _PRIME_LIMIT:
                raise InputError(
                    f"field order of {field.bit_length()} bits is too large: "
                    f"orders must be below {_PRIME_LIMIT}"
                )
            if not _is_prime(field):
                raise InputError(f"field order {field} is not prime")
            self.field = field
        else:
            raise InputError(f"bad field: {field!r}")
        dims = {len(col) for col in columns.values()}
        if len(dims) > 1:
            raise InputError("columns have mixed dimensions")
        self.dim = dims.pop() if dims else 0
        cols: dict[int, tuple] = {}
        ints: dict[int, tuple[int, ...]] = {}
        for e, col in columns.items():
            for x in col:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                    raise InputError(f"column {e}: entry {x!r} is not an exact rational")
            if self.field == "Q":
                cols[e] = tuple(Fraction(x) for x in col)
                scale = math.lcm(*(x.denominator for x in cols[e]))
                ints[e] = tuple(int(x * scale) for x in cols[e])
            else:
                if any(Fraction(x).denominator != 1 for x in col):
                    raise InputError("GF(p) entries must be integers")
                cols[e] = ints[e] = tuple(int(x) % self.field for x in col)
        self.columns = cols
        self._int_columns = ints

    def _indep_mask(self, mask: int) -> bool:
        ids = _ids_of(mask)
        if len(ids) > self.dim:
            return False
        rows = [self._int_columns[e] for e in ids]  # column vectors as rows
        return _rank(rows, 0 if self.field == "Q" else self.field) == len(ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearMatroid):
            return NotImplemented
        return self.field == other.field and self.columns == other.columns


def _rank(rows: list[Sequence[int]], p: int) -> int:
    """The rank of integer rows, over Q when p is 0 and over GF(p)
    otherwise.  Fraction-free elimination: each step replaces row i by
    pivot · row i − row i[col] · pivot row, and over Q divides it
    exactly by the previous pivot (Bareiss), so the entries stay minors
    of the input; over GF(p) it reduces them mod p.  The list rows is
    reordered and refilled; the rows it holds are never mutated."""
    rank = 0
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        pv = top[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if p:
                rows[i] = [(a * pv - f * b) % p for a, b in zip(rows[i], top)]
            else:
                rows[i] = [(a * pv - f * b) // prev for a, b in zip(rows[i], top)]
        prev = pv
        rank += 1
    return rank


class ExplicitMatroid(Matroid):
    """Independence given by an explicit family of maximal independent
    sets (independent = subset of some listed set).  ∅ is always
    independent: an empty family is normalized to {∅}, and from_table
    adds ∅ to its table.

    from_table builds an oracle from a raw list of independent sets with
    no other closure applied; that mode exists to construct axiom
    violations for testing and cannot be serialized.  `hereditary` tells
    whether such a table is closed under taking subsets, which every
    subset walk assumes.
    """

    kind = "explicit"

    def __init__(self, ground: Iterable[int], maximal_sets: Iterable[Iterable[int]]):
        super().__init__(ground)
        masks = sorted({_mask_of(s) for s in maximal_sets})
        for m in masks:
            if m & ~self.ground_mask:
                raise InputError("maximal set leaves the ground set")
        self.maximal_masks: tuple[int, ...] | None = tuple(masks) if masks else (0,)
        self._table: frozenset[int] | None = None

    @classmethod
    def from_table(
        cls, ground: Iterable[int], independent_sets: Iterable[Iterable[int]]
    ) -> "ExplicitMatroid":
        self = cls(ground, [])
        self.maximal_masks = None
        self._table = frozenset(_mask_of(s) for s in independent_sets) | {0}
        for m in self._table:
            if m & ~self.ground_mask:
                raise InputError("independent set leaves the ground set")
        return self

    def hereditary(self) -> bool:
        """True iff every subset of an independent set is independent:
        always for the maximal-set form; for a raw table, iff removing
        any one element from a listed set leaves a listed set (∅ is
        always listed)."""
        if self._table is None:
            return True
        for m in self._table:
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                if not self.independent_mask(m ^ low):
                    return False
        return True

    @property
    def maximal_independent_sets(self) -> tuple[frozenset[int], ...]:
        if self.maximal_masks is None:
            raise InputError("raw-table explicit matroid has no maximal-set form")
        return tuple(frozenset(_ids_of(m)) for m in self.maximal_masks)

    def _indep_mask(self, mask: int) -> bool:
        if self._table is not None:
            return mask in self._table
        assert self.maximal_masks is not None
        return any(not mask & ~mm for mm in self.maximal_masks)

    def full_rank(self) -> int:
        """Size of the largest listed set, exact whether or not the
        family is a matroid (a greedy basis may stop short off one)."""
        masks = self._table if self._table is not None else self.maximal_masks
        return max((m.bit_count() for m in masks), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitMatroid):
            return NotImplemented
        return (
            self.ground == other.ground
            and self.maximal_masks == other.maximal_masks
            and self._table == other._table
        )


def min_cost_basis(
    matroid: Matroid,
    cost: Mapping[int, Fraction] | Sequence[int],
    among: Iterable[int] | None = None,
    limit: int | None = None,
) -> frozenset[int]:
    """Greedy minimum-cost basis, scanning elements by (cost, id).

    The scan covers among (default: the ground set) and stops once it
    holds limit elements (default: no limit), which makes the result the
    basis of the matroid restricted to among and truncated at limit.
    For a valid matroid oracle this is an exact minimum-cost maximal
    independent set; ties resolve to the lexicographically smallest ids.
    """
    if limit is not None and (not _is_int(limit) or limit < 0):
        raise InputError(f"bad basis limit: {limit!r}")
    pool = matroid.ground_list
    if among is not None:
        mask = _mask_of(among)
        if mask & ~matroid.ground_mask:
            raise InputError("basis pool leaves the ground set")
        pool = _ids_of(mask)
    if limit == 0:
        return frozenset()
    chosen = 0
    for e in sorted(pool, key=lambda x: (cost[x], x)):
        cand = chosen | (1 << e)
        if matroid.independent_mask(cand):
            chosen = cand
            if cand.bit_count() == limit:
                break
    return frozenset(_ids_of(chosen))


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    mode: str
    sets_checked: int
    pairs_checked: int
    witness: dict | None


def axiom_check(matroid: Matroid, samples: int = 2000, seed: int = 0) -> AxiomReport:
    """Verify the hereditary and exchange axioms.

    Exhaustive for ground sets of up to 14 elements (every independent
    set, every exchange pair up to the standard |A| = |B|+1 reduction);
    random sampling beyond that.  Never raises on a violation: the first
    counterexample is returned in the report.
    """
    n = len(matroid.ground_list)
    if n <= 14:
        return _axiom_check_exhaustive(matroid)
    return _axiom_check_sampled(matroid, samples, seed)


def _axiom_check_exhaustive(matroid: Matroid) -> AxiomReport:
    ids = matroid.ground_list
    n = len(ids)
    full = (1 << n) - 1
    bit_to_global = [1 << e for e in ids]

    gmask = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        gmask[m] = gmask[m ^ low] | bit_to_global[low.bit_length() - 1]
    indep = [matroid.independent_mask(gmask[m]) for m in range(1 << n)]

    sets_checked = 1
    if not indep[0]:
        return AxiomReport(False, "exhaustive", 1, 0, {"axiom": "empty"})

    for m in range(1, 1 << n):
        if not indep[m]:
            continue
        sets_checked += 1
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            if not indep[m ^ low]:
                return AxiomReport(
                    False,
                    "exhaustive",
                    sets_checked,
                    0,
                    {
                        "axiom": "hereditary",
                        "set": _globals(m, ids),
                        "subset": _globals(m ^ low, ids),
                    },
                )

    # maxind[T] = size of the largest independent subset of T, computed
    # from the raw table so it stays honest for non-matroids.
    maxind = [0] * (1 << n)
    for m in range(1, 1 << n):
        if indep[m]:
            maxind[m] = m.bit_count()
        else:
            best = 0
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                v = maxind[m ^ low]
                if v > best:
                    best = v
            maxind[m] = best

    # B violates exchange iff some independent A with |A| = |B|+1 avoids
    # every element addable to B; equivalently the largest independent
    # subset of (ground minus addable(B)) exceeds |B|.
    pairs_checked = 0
    for b in range(1 << n):
        if not indep[b]:
            continue
        ext = 0
        rest = full & ~b
        while rest:
            low = rest & -rest
            rest ^= low
            if indep[b | low]:
                ext |= low
        pairs_checked += 1
        allowed = full & ~ext
        if maxind[allowed] > b.bit_count():
            a = _find_indep_subset(indep, allowed, b.bit_count() + 1, n)
            return AxiomReport(
                False,
                "exhaustive",
                sets_checked,
                pairs_checked,
                {
                    "axiom": "exchange",
                    "A": _globals(a, ids),
                    "B": _globals(b, ids),
                },
            )
    return AxiomReport(True, "exhaustive", sets_checked, pairs_checked, None)


def _find_indep_subset(indep: list[bool], allowed: int, size: int, n: int) -> int:
    for m in range(1 << n):
        if m.bit_count() == size and not m & ~allowed and indep[m]:
            return m
    raise AssertionError("witness promised by maxind but not found")


def _globals(local_mask: int, ids: tuple[int, ...]) -> list[int]:
    return [ids[b] for b in range(local_mask.bit_length()) if local_mask >> b & 1]


def _axiom_check_sampled(matroid: Matroid, samples: int, seed: int) -> AxiomReport:
    rng = random.Random(seed)
    ids = list(matroid.ground_list)
    if not matroid.independent_mask(0):
        return AxiomReport(False, "sampled", 1, 0, {"axiom": "empty"})

    def random_independent() -> int:
        rng.shuffle(ids)
        mask = 0
        for e in ids:
            cand = mask | (1 << e)
            if matroid.independent_mask(cand):
                mask = cand
            if rng.random() < 0.25:
                break
        return mask

    sets_checked = 1
    pairs_checked = 0
    for _ in range(samples):
        a = random_independent()
        b = random_independent()
        for m in (a, b):
            sets_checked += 1
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                if not matroid.independent_mask(m ^ low):
                    return AxiomReport(
                        False,
                        "sampled",
                        sets_checked,
                        pairs_checked,
                        {
                            "axiom": "hereditary",
                            "set": _ids_of(m),
                            "subset": _ids_of(m ^ low),
                        },
                    )
        if a.bit_count() == b.bit_count():
            continue
        if a.bit_count() < b.bit_count():
            a, b = b, a
        pairs_checked += 1
        rest = a & ~b
        found = False
        while rest:
            low = rest & -rest
            rest ^= low
            if matroid.independent_mask(b | low):
                found = True
                break
        if not found:
            return AxiomReport(
                False,
                "sampled",
                sets_checked,
                pairs_checked,
                {"axiom": "exchange", "A": _ids_of(a), "B": _ids_of(b)},
            )
    return AxiomReport(True, "sampled", sets_checked, pairs_checked, None)

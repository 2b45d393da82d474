"""The three workloads: how each makes its ops from a seed, runs one op
through the package's public API, and checks the answer.

A workload is an endless stream of cycles; every cycle holds one op per
slot (shape), in the same order for every seed, with instances drawn
from the seed.  An op's outcome is ``(ids, profit, cost)``.  Instances
are described by specs (plain tuples) so that the verifier can build
its own copy of every instance, separately from the object the op
solved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from types import ModuleType
from typing import Callable, Iterator

import networkx as nx

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class OracleTimeout(Exception):
    pass


@dataclass
class Op:
    slot: str                  # shape of the op, the same across seeds
    spec: tuple                # how to rebuild the instance
    eps: Fraction | None       # None for non-profitable solves
    call: Callable[[], tuple] | None = field(repr=False)  # None once run


def build(bc: ModuleType, spec: tuple):
    """A fresh instance object for a spec."""
    kind = spec[0]
    if kind == "file":
        return bc.load_instance(spec[1])
    if kind == "bm":
        _, seed, nv, frac = spec
        return bc.random_bm(seed, n_vertices=nv, edge_prob=HALF, budget_fraction=frac)
    _, seed, n, first = spec
    rng = random.Random(seed)
    elements = [
        bc.Element(i, Fraction(rng.randint(1, 20)), Fraction(rng.randint(1, 20)))
        for i in range(n)
    ]
    total = sum((e.cost for e in elements), Fraction(0))
    if kind == "bi_pairs":
        # pairs {2i, 2i+1} with capacity 1, intersected with U(n/4, n)
        m1 = bc.PartitionMatroid(
            range(n), [[2 * i, 2 * i + 1] for i in range(n // 2)], [1] * (n // 2)
        )
        m2 = bc.UniformMatroid(range(n), n // 4)
        return bc.BCInstance(elements, bc.MatroidIntersectionConstraint(m1, m2), total / 2)
    if kind == "bi_ranked":
        # random_bi's (uniform, uniform) and (partition, uniform) families
        # with the ranks fixed near n/2 and at n/3: the Lagrangian path's
        # cost grows with the ranks, and random ranks spread it 100-fold
        if first == "uniform":
            m1 = bc.UniformMatroid(range(n), n // 2)
        else:
            block = [rng.randrange(n // 2) for _ in range(n)]
            groups = [[e for e in range(n) if block[e] == b] for b in range(n // 2)]
            groups = [g for g in groups if g]
            m1 = bc.PartitionMatroid(range(n), groups, [1] * len(groups))
        m2 = bc.UniformMatroid(range(n), n // 3)
        return bc.BCInstance(elements, bc.MatroidIntersectionConstraint(m1, m2), total / 10)
    raise ValueError(f"unknown spec {spec!r}")


def _outcome(sol) -> tuple:
    return (tuple(sol.ids), sol.profit, sol.cost)


class Workload:
    name = ""
    cycle_len = 0              # ops per cycle
    verify_limit_s = 5.0       # per exact-oracle call on the verifier side
    exact_check = "ratio"      # "ratio": p >= (1-eps)*OPT; "nps": p >= OPT - 2 max p

    def cycle(self, bc: ModuleType, rng: random.Random) -> list[tuple[tuple, Fraction | None]]:
        """(spec, epsilon) of every op of the next cycle."""
        raise NotImplementedError

    def make_ops(self, bc: ModuleType, keys: list[tuple]) -> list[Op]:
        """Ops for (spec, epsilon) keys, each on a freshly built instance."""
        raise NotImplementedError

    def stream(self, bc: ModuleType, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        while True:
            yield from self.make_ops(bc, self.cycle(bc, rng))

    def redo(self, bc: ModuleType, ops: list[Op]) -> list[Op]:
        """The same ops on freshly built instances."""
        return self.make_ops(bc, [(op.spec, op.eps) for op in ops])


class Desk(Workload):
    """``bcopt solve FILE --epsilon E`` in-process on the fixture corpus;
    every op loads its file."""

    name = "desk"

    def __init__(self, root: str):
        corpus = os.path.join(root, "fixtures", "corpus")
        if not os.path.isdir(corpus):
            raise SystemExit(f"error: no corpus at {corpus}")
        self.files = sorted(
            os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".json")
        )
        if len(self.files) != 40:
            raise SystemExit(f"error: expected 40 corpus files, found {len(self.files)}")
        self.cycle_len = 2 * len(self.files)

    def stream(self, bc, seed):
        for path in self.files:  # set-up loads every instance once
            bc.load_instance(path)
        yield from super().stream(bc, seed)

    def cycle(self, bc, rng):
        keys = [(("file", p), e) for p in self.files for e in (HALF, THIRD)]
        rng.shuffle(keys)
        return keys

    def make_ops(self, bc, keys):
        return [self._op(bc.cli, spec[1], eps) for spec, eps in keys]

    def _op(self, cli: ModuleType, path: str, eps: Fraction) -> Op:
        argv = ["solve", path, "--epsilon", str(eps)]

        def call() -> tuple:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"bcopt {' '.join(argv)} exited {code}")
            sol = json.loads(buf.getvalue())["solution"]
            return (tuple(sol["ids"]), Fraction(sol["profit"]), Fraction(sol["cost"]))

        return Op(f"{os.path.basename(path)}@{eps}", ("file", path), eps, call)


class Scale(Workload):
    """``approximate(inst, 1/2)`` then ``approximate(inst, 1/3)`` on one
    instance object, over BM and BI shapes where the scheme is slow."""

    name = "scale"
    # Sizes stop one step below the shapes where a solve takes 4 s, so a
    # 35 s run holds about 100 ops instead of 20; the sizes are graded so
    # that the median op does not hinge on a single shape.
    SLOTS = (("bm", 9), ("bm", 10), ("bm", 11), ("bm", 12),
             ("bi_pairs", 12), ("bi_pairs", 14), ("bi_pairs", 16))
    cycle_len = 2 * len(SLOTS)

    def cycle(self, bc, rng):
        keys = []
        for kind, size in self.SLOTS:
            spec = _median_bm(bc, rng, size) if kind == "bm" else \
                ("bi_pairs", rng.randrange(2**32), size, None)
            keys += [(spec, HALF), (spec, THIRD)]
        return keys

    def make_ops(self, bc, keys):
        out = []
        for spec, group in groupby(keys, key=lambda k: k[0]):
            inst = build(bc, spec)  # shared by both solves: two_approx is cached
            slot = f"{spec[0]}{spec[2]}"
            for _, eps in group:
                out.append(Op(f"{slot}@{eps}", spec, eps, _approx(bc, inst, eps)))
        return out


def _median_bm(bc: ModuleType, rng: random.Random, nv: int) -> tuple:
    """A random_bm seed whose graph has the median edge count of
    G(nv, 1/2).  At 10 to 13 vertices the edge count alone moves a solve
    by 3x, so holding it fixed keeps the work per op comparable between
    seeds; the instance is otherwise random_bm's."""
    target = round(nv * (nv - 1) / 4)
    while True:
        spec = ("bm", rng.randrange(2**32), nv, HALF)
        if build(bc, spec).n == target:
            return spec


def _approx(bc: ModuleType, inst, eps: Fraction) -> Callable[[], tuple]:
    return lambda: _outcome(bc.approximate(inst, eps))


class NpsLarge(Workload):
    """``non_profitable_solve(inst)`` under tight budgets, so the
    ``auto`` strategy takes the Lagrangian path."""

    name = "nps_large"
    exact_check = "nps"
    verify_limit_s = 1.0
    # Ops of about 1 s at most: heavier ones (BM with 60 vertices, BI with
    # n = 100, 2-4 s each) left a 35 s run too few ops for seeds to agree.
    # Seven of the thirteen slots take 0.3-0.5 s, so the median op pools
    # them instead of sitting in a gap between two slots, and the three
    # heaviest take 0.9-1.2 s, so the tail pools them.
    SLOTS = tuple(("bm", nv) for nv in (30, 38, 40, 42, 52)) + tuple(
        (kind, n) for kind in ("uniform", "partition") for n in (40, 52, 55, 70))
    cycle_len = len(SLOTS)

    def cycle(self, bc, rng):
        keys = []
        for kind, size in self.SLOTS:
            seed = rng.randrange(2**32)
            if kind == "bm":
                keys.append((("bm", seed, size, Fraction(1, 60)), None))
            else:
                keys.append((("bi_ranked", seed, size, kind), None))
        return keys

    def make_ops(self, bc, keys):
        out = []
        for spec, _ in keys:
            inst = build(bc, spec)
            slot = f"bm{spec[2]}" if spec[0] == "bm" else f"bi_{spec[3][0]}u{spec[2]}"
            out.append(Op(slot, spec, None, _nps(bc, inst)))
        return out


def _nps(bc: ModuleType, inst) -> Callable[[], tuple]:
    return lambda: _outcome(bc.non_profitable_solve(inst))


WORKLOADS = {"desk": Desk, "scale": Scale, "nps_large": NpsLarge}


# -- verification ----------------------------------------------------------

def _alarm(signum, frame):
    raise OracleTimeout


def exact_opt(bc: ModuleType, inst, limit_s: float):
    """``brute_force_opt(inst, max_n=inst.n)``, or None past the limit."""
    if limit_s <= 0:  # a zero timer would mean no limit at all
        return None
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return bc.brute_force_opt(inst, max_n=inst.n)
    except OracleTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def lagrangian_bound(inst, target: Fraction, limit_s: float) -> Fraction | None:
    """An upper bound on OPT from the Lagrangian dual,
    min over probed λ of max_S (p − λc)(S) + λβ with S ranging over the
    constraint and the budget dropped.  Computed without the package's
    solvers: networkx's blossom for matchings; for the intersection of a
    uniform matroid with another matroid, which is itself a matroid,
    the greedy algorithm.  Bisects on λ until the bound reaches target or
    the time limit passes."""
    c = inst.constraint
    if c.kind != "matching" and c.m2.kind != "uniform":
        return None
    deadline = time.perf_counter() + limit_s
    elements = inst.elements
    positive = [e.cost for e in elements if e.cost > 0]
    lo = Fraction(0)
    hi = (sum((e.profit for e in elements), Fraction(0)) + 1) / min(positive, default=1)
    best = None
    lam = lo
    for _ in range(64):
        weight = {e.id: e.profit - lam * e.cost for e in elements}
        chosen = _max_weight_set(inst, weight)
        value = sum((weight[e] for e in chosen), Fraction(0)) + lam * inst.budget
        best = value if best is None else min(best, value)
        if sum((inst.cost[e] for e in chosen), Fraction(0)) > inst.budget:
            lo = lam
        else:
            hi = lam
        if best <= target or hi == 0 or time.perf_counter() > deadline:
            break
        lam = (lo + hi) / 2
    return best


def _max_weight_set(inst, weight: dict) -> list[int]:
    c = inst.constraint
    if c.kind == "matching":
        g = nx.Graph()
        for e, (u, v) in c.graph.edge_ends.items():
            if weight[e] > 0 and (not g.has_edge(u, v) or g[u][v]["weight"] < weight[e]):
                g.add_edge(u, v, weight=weight[e], eid=e)
        return [g[u][v]["eid"] for u, v in nx.max_weight_matching(g)]
    chosen: list[int] = []
    for e in sorted(inst.ids, key=lambda e: (-weight[e], e)):
        if weight[e] <= 0:
            break
        if c.m1.is_independent(chosen + [e]) and c.m2.is_independent(chosen + [e]):
            chosen.append(e)
    return chosen


def feasibility_error(inst, outcome: tuple) -> str | None:
    """Recheck an outcome on a separately built instance: the set is a
    matching (or common independent set), fits the budget and has the
    reported profit and cost.  None when everything holds."""
    ids, profit, cost = outcome
    if len(set(ids)) != len(ids) or not set(ids) <= inst.id_set:
        return f"ids {ids} are not distinct element ids"
    c = inst.constraint
    if c.kind == "matching":
        ends = [v for e in ids for v in c.graph.edge_ends[e]]
        if len(set(ends)) != len(ends):
            return f"ids {ids} share a vertex"
    elif not (c.m1.is_independent(ids) and c.m2.is_independent(ids)):
        return f"ids {ids} are not independent in both matroids"
    real_cost = sum((inst.cost[e] for e in ids), Fraction(0))
    real_profit = sum((inst.profit[e] for e in ids), Fraction(0))
    if real_cost > inst.budget:
        return f"cost {real_cost} exceeds budget {inst.budget}"
    if (real_profit, real_cost) != (profit, cost):
        return f"reported profit/cost {profit}/{cost}, recomputed {real_profit}/{real_cost}"
    return None


def quality_error(kind: str, inst, eps: Fraction | None, profit: Fraction, opt) -> str | None:
    if kind == "ratio":
        if profit < (1 - eps) * opt.profit:
            return f"profit {profit} < (1-{eps})*OPT, OPT={opt.profit}"
        return None
    max_p = max((e.profit for e in inst.elements), default=Fraction(0))
    if profit < opt.profit - 2 * max_p:
        return f"profit {profit} < OPT - 2*max p = {opt.profit} - 2*{max_p}"
    return None


def percentile_rank(n: int) -> tuple[int, float]:
    """Index (0-based) and percentile of the highest order statistic
    with at least ten samples beyond it; the maximum when n < 11."""
    if n < 11:
        return n - 1, 100.0
    k = n - 10
    return k - 1, 100.0 * k / n

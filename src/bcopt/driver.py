"""Top-level approximation scheme: enumerate profitable prefixes from
the representative set, solve with the non-profitable solver each
residual whose ceiling can beat the best so far, return the best
combination."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .lagrangian import residual_tail
from .model import BCInstance, Solution, low_profit_ids, _rat
from .oracles import iter_solutions
from .repset import RepSetResult, ceiling, checked_key, repset


@dataclass(frozen=True)
class EnumerationRecord:
    pinned: tuple[int, ...]
    tail: tuple[int, ...]
    combined: Solution
    fallback: bool


@dataclass(frozen=True)
class EptasRun:
    solution: Solution
    epsilon: Fraction
    alpha: Fraction
    rep: RepSetResult
    enumerated: int
    fallbacks: int
    records: tuple[EnumerationRecord, ...]


def eptas_run(
    inst: BCInstance,
    eps: Fraction,
    strategy: str = "auto",
    alpha_mode: str = "two-approx",
    max_exhaustive: int = 24,
    collect: bool = False,
) -> EptasRun:
    """Full scheme run with a report.

    Every solution-of-I subset F of R with |F| ≤ ⌊1/ε⌋ is enumerated
    (depth-first with hereditary and budget pruning; the winner is
    order-independent because comparison is (profit, lex)); the residual
    of each F, over E(α) computed once per run, goes to the
    non-profitable solver.  Under strategy="exhaustive" a residual with
    more survivors than max_exhaustive is solved as "auto" instead, which
    the gate sends to the Lagrangian path, and is counted as a fallback.

    Every prefix is enumerated and counted, fallbacks included, but
    unless collect asks for every record, a prefix whose p(F) plus its
    `ceiling` over E(α) is below the best profit so far is not solved:
    no tail of it can win, so the solution is unchanged.
    """
    rep = repset(inst, eps, alpha_mode=alpha_mode)
    eps = rep.params.epsilon
    alpha = rep.alpha
    cap = int(1 / eps)  # ⌊1/ε⌋ exact: Fraction floor division
    best: tuple[int, tuple[int, ...]] = (0, ())  # the empty solution's key
    records: list[EnumerationRecord] = []
    enumerated = 0
    fallbacks = 0
    low = low_profit_ids(inst, eps, alpha)
    P = inst.int_profit
    desc = sorted(low, key=lambda e: (-P[e], e))
    c = inst.constraint
    walk = iter_solutions(
        inst, candidates=sorted(rep.union), max_size=cap, with_state=True
    )
    for pinned, state, cost, profit in walk:
        enumerated += 1
        # an empty residual needs no solve, whatever the gate
        fallback = strategy == "exhaustive" and (
            len(c.survivors(state, low)) > max(max_exhaustive, 0)
        )
        fallbacks += fallback
        if not collect:
            need = -best[0] - profit
            if ceiling(inst, state, desc, inst.int_budget - cost, need) < need:
                continue
        tail = residual_tail(
            inst, pinned, low, "auto" if fallback else strategy, max_exhaustive
        )
        key = checked_key(inst, pinned, tail)
        best = min(best, key)
        if collect:
            records.append(
                EnumerationRecord(
                    pinned=tuple(pinned),
                    tail=tail,
                    combined=Solution.of(inst, key[1]),
                    fallback=fallback,
                )
            )
    return EptasRun(
        solution=Solution.of(inst, best[1]),
        epsilon=eps,
        alpha=alpha,
        rep=rep,
        enumerated=enumerated,
        fallbacks=fallbacks,
        records=tuple(records),
    )


def approximate(
    inst: BCInstance,
    eps: Fraction,
    strategy: str = "auto",
    alpha_mode: str = "two-approx",
    max_exhaustive: int = 24,
) -> Solution:
    """Solution with p ≥ (1−ε)·OPT, by running the core scheme at ε/8."""
    eps = _rat(eps)
    if not 0 < eps < 1:
        raise InputError(f"epsilon must be in (0, 1), got {eps}")
    return eptas_run(
        inst, eps / 8, strategy=strategy, alpha_mode=alpha_mode,
        max_exhaustive=max_exhaustive,
    ).solution

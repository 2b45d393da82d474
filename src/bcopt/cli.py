"""Command line interface.

Exit codes: 0 success (including verify reports with ok=false),
2 input error, 3 capacity error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from .driver import _core_epsilon, eptas_run
from .errors import CapacityError, DegenerateAlpha, InputError
from .generate import corpus_bi, corpus_bm, random_bi, random_bm
from .lagrangian import STRATEGIES, non_profitable_solve
from .matroids import AxiomReport, axiom_check
from .model import BCInstance, MatroidIntersectionConstraint
from .oracles import brute_force_opt, check_exchange_set, check_representative
from .repset import repset
from .serialize import (
    canonical_json,
    format_rational,
    instance_to_dict,
    load_instance,
    parse_rational,
    solution_to_dict,
)

ALPHA_MODES = ("two-approx", "exact")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        _check_counts(args)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DegenerateAlpha as exc:
        print(f"input error: degenerate alpha ({exc})", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


def _check_counts(args: argparse.Namespace) -> None:
    """Reject the integer options whose values no command can use."""
    if getattr(args, "max_exhaustive", 0) < 0:
        raise InputError(
            f"--max-exhaustive must be nonnegative, got {args.max_exhaustive}"
        )
    if getattr(args, "jobs", 1) < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcopt",
        description="Budgeted matching / matroid intersection approximation scheme.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the (1-eps)-approximation")
    p.add_argument("instance")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    p.add_argument("--alpha", choices=ALPHA_MODES, default="two-approx")
    p.add_argument("--max-exhaustive", type=int, default=24)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="exhaustive exact optimum")
    p.add_argument("instance")
    p.add_argument("--max-exhaustive", type=int, default=24)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("nps", help="non-profitable solver (additive 2*max-profit slack)")
    p.add_argument("instance")
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    p.add_argument("--max-exhaustive", type=int, default=24)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_nps)

    p = sub.add_parser("repset", help="representative set summary")
    p.add_argument("instance")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--alpha", choices=ALPHA_MODES, default="two-approx")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_repset)

    p = sub.add_parser("exset", help="per-class exchange sets")
    p.add_argument("instance")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--alpha", choices=ALPHA_MODES, default="two-approx")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_exset)

    p = sub.add_parser("verify", help="run a checker against an instance")
    p.add_argument("instance")
    p.add_argument(
        "--check", required=True, choices=("axioms", "exchange-set", "representative")
    )
    p.add_argument("--candidate", help="JSON candidate file for set checkers")
    p.add_argument("--epsilon")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-exhaustive", type=int, default=24)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--family", choices=("bm", "bi"))
    p.add_argument("--seed", type=int)
    p.add_argument("--corpus", help="corpus shorthand, e.g. bm:17 or bi:3")
    p.add_argument("--vertices", type=int, default=8)
    p.add_argument("--edge-prob", default="1/2")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--kinds", default="uniform,partition")
    p.add_argument("--profit-max", type=int, default=20)
    p.add_argument("--cost-max", type=int, default=20)
    p.add_argument("--budget-fraction", default="1/2")
    p.add_argument("--max-edges", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="CSV benchmark over a corpus")
    p.add_argument("paths", nargs="+", help="instance files or directories")
    p.add_argument("--epsilons", required=True, help="comma list, e.g. 1/2,1/3")
    p.add_argument("--max-exhaustive", type=int, default=24)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    return parser


def _json_safe(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (frozenset, set)):
        return sorted(_json_safe(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write(text: str, path: str | None) -> None:
    """Print text, and also save it to path when one is given."""
    sys.stdout.write(text)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(report: dict, path: str | None) -> None:
    _write(canonical_json(_json_safe(report)), path)


def _solve_epsilon(raw: str) -> tuple[Fraction, Fraction]:
    eps = parse_rational(raw)
    return eps, _core_epsilon(eps)


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    eps, core_eps = _solve_epsilon(args.epsilon)
    run = eptas_run(
        inst,
        core_eps,
        strategy=args.strategy,
        alpha_mode=args.alpha,
        max_exhaustive=args.max_exhaustive,
    )
    _emit(
        {
            "command": "solve",
            "instance": args.instance,
            "epsilon": eps,
            "core_epsilon": core_eps,
            "guarantee": 1 - eps,
            "strategy": args.strategy,
            "alpha": run.alpha,
            "solution": solution_to_dict(run.solution),
            "repset_size": len(run.rep.union),
            "enumerated": run.enumerated,
            "fallbacks": run.fallbacks,
        },
        args.report,
    )
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    sol = brute_force_opt(inst, max_n=args.max_exhaustive)
    _emit(
        {
            "command": "exact",
            "instance": args.instance,
            "solution": solution_to_dict(sol),
        },
        args.report,
    )
    return 0


def _cmd_nps(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    sol = non_profitable_solve(
        inst, strategy=args.strategy, max_exhaustive=args.max_exhaustive
    )
    report = {
        "command": "nps",
        "instance": args.instance,
        "strategy": args.strategy,
        "solution": solution_to_dict(sol),
        "slack_bound": 2 * inst.max_profit,
    }
    if inst.n <= args.max_exhaustive:
        opt = brute_force_opt(inst, max_n=args.max_exhaustive)
        slack = opt.profit - sol.profit
        report["opt"] = opt.profit
        report["slack"] = slack
        report["contract_ok"] = slack <= 2 * inst.max_profit
    _emit(report, args.report)
    return 0


def _params_dict(params) -> dict:
    return {
        "epsilon": params.epsilon,
        "q": params.q_nominal,
        "q_eff": params.q_eff,
        "k_eff": params.k_eff,
        "n_cap": params.n_cap,
        "class_count": params.class_count,
    }


def _cmd_repset(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    eps = parse_rational(args.epsilon)
    res = repset(inst, eps, alpha_mode=args.alpha)
    bound = 54 * res.params.q_eff**3
    report = {
        "command": "repset",
        "instance": args.instance,
        "epsilon": eps,
        "alpha": res.alpha,
        "alpha_mode": args.alpha,
        "params": _params_dict(res.params),
        "class_sizes": {
            r: len(members)
            for r, members in (res.classing.classes.items() if res.classing else ())
        },
        "exchange_set_sizes": {r: len(x) for r, x in res.per_class_sets.items()},
        "size": len(res.union),
        "ids": sorted(res.union),
        "bound": bound,
        "bound_ok": len(res.union) <= bound,
    }
    _emit(report, args.report)
    return 0


def _cmd_exset(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    eps = parse_rational(args.epsilon)
    res = repset(inst, eps, alpha_mode=args.alpha)
    classes = {}
    for r, x in sorted(res.per_class_sets.items()):
        members = res.classing.classes.get(r, ()) if res.classing else ()
        classes[str(r)] = {
            "members": sorted(members),
            "exchange_set": sorted(x),
        }
    _emit(
        {
            "command": "exset",
            "instance": args.instance,
            "epsilon": eps,
            "alpha": res.alpha,
            "classes": classes,
        },
        args.report,
    )
    return 0


def _axiom_dict(rep: AxiomReport) -> dict:
    return {
        "ok": rep.ok,
        "mode": rep.mode,
        "sets_checked": rep.sets_checked,
        "pairs_checked": rep.pairs_checked,
        "witness": rep.witness,
    }


def _load_candidate(args: argparse.Namespace) -> dict:
    if not args.candidate:
        raise InputError(f"--check {args.check} requires --candidate")
    with open(args.candidate, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "ids" not in data:
        raise InputError("candidate file must be an object with an 'ids' list")
    ids = data["ids"]
    if not isinstance(ids, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in ids
    ):
        raise InputError("candidate 'ids' must be a list of integers")
    return data


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    report: dict[str, Any] = {
        "command": "verify",
        "check": args.check,
        "instance": args.instance,
    }
    if args.check == "axioms":
        if not isinstance(inst.constraint, MatroidIntersectionConstraint):
            raise InputError("axiom check applies to matroid-intersection instances")
        reps = [
            axiom_check(m, seed=args.seed)
            for m in (inst.constraint.m1, inst.constraint.m2)
        ]
        report["ok"] = all(r.ok for r in reps)
        report["matroids"] = [_axiom_dict(r) for r in reps]
    else:
        if args.epsilon is None:
            raise InputError(f"--check {args.check} requires --epsilon")
        eps = parse_rational(args.epsilon)
        cand = _load_candidate(args)
        if args.check == "exchange-set":
            for key in ("r", "alpha"):
                if key not in cand:
                    raise InputError(f"candidate file missing {key!r}")
            if not isinstance(cand["r"], int) or isinstance(cand["r"], bool):
                raise InputError("candidate 'r' must be an integer")
            res = check_exchange_set(
                inst,
                eps,
                parse_rational(cand["alpha"]),
                cand["r"],
                cand["ids"],
                max_n=args.max_exhaustive,
            )
        else:
            res = check_representative(inst, eps, cand["ids"], max_n=args.max_exhaustive)
        report["epsilon"] = eps
        report["ok"] = res.ok
        report["witness"] = res.witness
        report["stats"] = res.stats
    _emit(report, args.report)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.corpus:
        family, _, idx = args.corpus.partition(":")
        if family not in ("bm", "bi") or not idx.isdigit():
            raise InputError(f"bad corpus shorthand {args.corpus!r}")
        inst = corpus_bm(int(idx)) if family == "bm" else corpus_bi(int(idx))
    else:
        if args.family is None or args.seed is None:
            raise InputError("gen requires --family and --seed (or --corpus)")
        if args.family == "bm":
            inst = random_bm(
                seed=args.seed,
                n_vertices=args.vertices,
                edge_prob=parse_rational(args.edge_prob),
                profit_range=(1, args.profit_max),
                cost_range=(1, args.cost_max),
                budget_fraction=parse_rational(args.budget_fraction),
                max_edges=args.max_edges,
            )
        else:
            inst = random_bi(
                seed=args.seed,
                n=args.n,
                kinds=tuple(args.kinds.split(",")),  # type: ignore[arg-type]
                profit_range=(1, args.profit_max),
                cost_range=(1, args.cost_max),
                budget_fraction=parse_rational(args.budget_fraction),
            )
    _write(canonical_json(instance_to_dict(inst)), args.out)
    return 0


BENCH_COLUMNS = (
    "instance",
    "epsilon",
    "profit",
    "opt",
    "ratio",
    "repset_size",
    "repset_bound",
    "wall_ms",
)


def _bench_row(task: tuple[str, str, int, bool]) -> list[str]:
    path, eps_raw, max_exhaustive, timings = task
    inst = load_instance(path)
    eps, core_eps = _solve_epsilon(eps_raw)
    start = time.perf_counter()
    run = eptas_run(inst, core_eps, max_exhaustive=max_exhaustive)
    elapsed = time.perf_counter() - start
    profit = run.solution.profit
    opt_s = ratio_s = ""
    if inst.n <= max_exhaustive:
        opt = brute_force_opt(inst, max_n=max_exhaustive).profit
        opt_s = format_rational(opt)
        ratio_s = "1" if profit == opt else format_rational(profit / opt)
    return [
        path,
        format_rational(eps),
        format_rational(profit),
        opt_s,
        ratio_s,
        str(len(run.rep.union)),
        str(54 * run.rep.params.q_eff**3),
        f"{elapsed * 1000:.3f}" if timings else "",
    ]


def _bench_files(paths: Sequence[str]) -> list[str]:
    import os

    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(
                os.path.join(p, name)
                for name in sorted(os.listdir(p))
                if name.endswith(".json")
            )
        else:
            files.append(p)
    return files


def _cmd_bench(args: argparse.Namespace) -> int:
    eps_tokens = [tok.strip() for tok in args.epsilons.split(",") if tok.strip()]
    if not eps_tokens:
        raise InputError("--epsilons must list at least one value")
    # checked before any row, so a bad value fails even with no files
    for tok in eps_tokens:
        _solve_epsilon(tok)
    files = _bench_files(args.paths)
    tasks = [
        (path, tok, args.max_exhaustive, args.timings)
        for path in files
        for tok in eps_tokens
    ]
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            rows = pool.map(_bench_row, tasks)
    else:
        rows = [_bench_row(t) for t in tasks]
    rows.sort(key=lambda row: (row[0], Fraction(row[1])))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    writer.writerows(rows)
    _write(buf.getvalue(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

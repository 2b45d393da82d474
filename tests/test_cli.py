"""Command line interface: subcommands, exit codes, deterministic
reports."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

import bcopt.cli as cli_mod
from bcopt.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIG1 = str(FIXTURES / "fig1.json")
FIG2 = str(FIXTURES / "fig2_shape.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_star_pair(capsys):
    code, out, _ = run(capsys, ["solve", FIG1, "--epsilon", "1/2"])
    assert code == 0
    report = json.loads(out)
    assert report["epsilon"] == "1/2"
    assert report["core_epsilon"] == "1/16"
    assert report["guarantee"] == "1/2"
    assert report["alpha"] == "11"
    assert report["solution"] == {
        "ids": [0, 2],
        "profit": "11",
        "cost": "2",
        "feasible": True,
    }
    assert report["repset_size"] == 4
    assert report["enumerated"] == 7
    assert report["fallbacks"] == 0


def test_solve_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["solve", FIG1, "--epsilon", "1/2", "--report", str(target)]
    )
    assert code == 0
    assert target.read_text() == out


def test_solve_rerun_identical(capsys):
    _, first, _ = run(capsys, ["solve", FIG1, "--epsilon", "1/3"])
    _, second, _ = run(capsys, ["solve", FIG1, "--epsilon", "1/3"])
    assert first == second


def test_solve_epsilon_validation(capsys):
    for eps in ("0", "1", "3/2", "abc"):
        code, _, err = run(capsys, ["solve", FIG1, "--epsilon", eps])
        assert code == 2
        assert "input error" in err


def test_missing_instance_file(capsys):
    code, _, err = run(capsys, ["solve", "no_such_file.json", "--epsilon", "1/2"])
    assert code == 2
    assert "input error" in err


def test_exact(capsys):
    code, out, _ = run(capsys, ["exact", FIG1])
    assert code == 0
    report = json.loads(out)
    assert report["solution"]["profit"] == "11"
    assert report["solution"]["ids"] == [0, 2]


def test_exact_capacity_exit_code(capsys):
    code, _, err = run(capsys, ["exact", FIG1, "--max-exhaustive", "2"])
    assert code == 3
    assert "capacity error" in err


def test_nps_contract_fields(capsys):
    code, out, _ = run(capsys, ["nps", FIG1])
    assert code == 0
    report = json.loads(out)
    assert report["slack_bound"] == "20"
    assert report["opt"] == "11"
    assert report["solution"]["profit"] == "11"
    assert report["slack"] == "0"
    assert report["contract_ok"] is True


def test_repset_summary(capsys):
    code, out, _ = run(capsys, ["repset", FIG1, "--epsilon", "1/2"])
    assert code == 0
    report = json.loads(out)
    assert report["alpha"] == "11"
    assert report["params"] == {
        "epsilon": "1/2",
        "q": 4,
        "q_eff": 4,
        "k_eff": 24,
        "n_cap": 3,
        "class_count": 3,
    }
    assert report["class_sizes"] == {"2": 2}
    assert report["exchange_set_sizes"] == {"2": 2}
    assert report["size"] == 2
    assert report["ids"] == [0, 1]
    assert report["bound"] == 3456
    assert report["bound_ok"] is True


def test_exset(capsys):
    code, out, _ = run(capsys, ["exset", FIG1, "--epsilon", "1/2"])
    assert code == 0
    report = json.loads(out)
    assert report["classes"] == {
        "2": {"members": [0, 1], "exchange_set": [0, 1]}
    }


def test_verify_axioms(capsys):
    code, out, _ = run(capsys, ["verify", FIG2, "--check", "axioms"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["matroids"]) == 2
    # matching instances have no matroid pair to check
    code, _, err = run(capsys, ["verify", FIG1, "--check", "axioms"])
    assert code == 2
    assert "input error" in err


def test_verify_exchange_set(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"r": 2, "alpha": "11", "ids": [0, 1]}))
    code, out, _ = run(
        capsys,
        ["verify", FIG1, "--check", "exchange-set", "--epsilon", "1/2",
         "--candidate", str(good)],
    )
    assert code == 0
    assert json.loads(out)["ok"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"r": 2, "alpha": "11", "ids": [0]}))
    code, out, _ = run(
        capsys,
        ["verify", FIG1, "--check", "exchange-set", "--epsilon", "1/2",
         "--candidate", str(bad)],
    )
    # a failed check is still a successful verification run
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is False
    assert report["witness"] == {"delta": [1, 3], "a": 1}


def test_verify_candidate_validation(tmp_path, capsys):
    code, _, err = run(
        capsys, ["verify", FIG1, "--check", "exchange-set", "--epsilon", "1/2"]
    )
    assert code == 2 and "candidate" in err

    no_eps = tmp_path / "c.json"
    no_eps.write_text(json.dumps({"r": 2, "alpha": "11", "ids": [0, 1]}))
    code, _, err = run(
        capsys,
        ["verify", FIG1, "--check", "exchange-set", "--candidate", str(no_eps)],
    )
    assert code == 2 and "epsilon" in err

    missing_r = tmp_path / "no_r.json"
    missing_r.write_text(json.dumps({"alpha": "11", "ids": [0, 1]}))
    code, _, _ = run(
        capsys,
        ["verify", FIG1, "--check", "exchange-set", "--epsilon", "1/2",
         "--candidate", str(missing_r)],
    )
    assert code == 2

    bad_ids = tmp_path / "bad_ids.json"
    bad_ids.write_text(json.dumps({"ids": [0, "x"]}))
    code, _, _ = run(
        capsys,
        ["verify", FIG1, "--check", "representative", "--epsilon", "1/2",
         "--candidate", str(bad_ids)],
    )
    assert code == 2


def test_verify_representative(tmp_path, capsys):
    cand = tmp_path / "rep.json"
    cand.write_text(json.dumps({"ids": [0, 1]}))
    code, out, _ = run(
        capsys,
        ["verify", FIG1, "--check", "representative", "--epsilon", "1/2",
         "--candidate", str(cand)],
    )
    assert code == 0
    assert json.loads(out)["ok"] is True

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"ids": [2, 3]}))
    code, out, _ = run(
        capsys,
        ["verify", FIG1, "--check", "representative", "--epsilon", "1/8",
         "--candidate", str(wrong)],
    )
    assert code == 0
    assert json.loads(out)["ok"] is False


def test_gen_corpus_matches_fixture(capsys):
    code, out, _ = run(capsys, ["gen", "--corpus", "bm:0"])
    assert code == 0
    assert out.encode() == (FIXTURES / "corpus" / "bm_000.json").read_bytes()


def test_gen_validation(capsys):
    assert run(capsys, ["gen"])[0] == 2
    assert run(capsys, ["gen", "--corpus", "bm:x"])[0] == 2
    assert run(capsys, ["gen", "--corpus", "zz:1"])[0] == 2
    assert run(capsys, ["gen", "--family", "bm"])[0] == 2
    assert run(capsys, ["gen", "--family", "bi", "--seed", "1",
                        "--kinds", "uniform"])[0] == 2


@pytest.mark.parametrize("eps", ["-1", "0", "3/4"])
def test_verify_representative_epsilon_out_of_range(eps, tmp_path, capsys):
    cand = tmp_path / "rep.json"
    cand.write_text(json.dumps({"ids": [0, 1]}))
    code, out, err = run(
        capsys,
        ["verify", FIG1, "--check", "representative", "--epsilon", eps,
         "--candidate", str(cand)],
    )
    assert code == 2 and out == ""
    assert err.startswith("input error: epsilon must be in (0, 1/2]")


@pytest.mark.parametrize("max_edges", ["0", "-1"])
def test_gen_max_edges_below_one_is_an_input_error(max_edges, capsys):
    code, out, err = run(
        capsys, ["gen", "--family", "bm", "--seed", "1", "--max-edges", max_edges]
    )
    assert code == 2 and out == ""
    assert err == f"input error: max_edges must be at least 1, got {max_edges}\n"


def test_gen_to_solve(tmp_path, capsys):
    out_file = tmp_path / "inst.json"
    code, out, _ = run(
        capsys,
        ["gen", "--family", "bm", "--seed", "5", "--vertices", "5",
         "--out", str(out_file)],
    )
    assert code == 0
    assert out_file.read_text() == out
    code, out, _ = run(capsys, ["solve", str(out_file), "--epsilon", "1/2"])
    assert code == 0
    assert json.loads(out)["solution"]["feasible"] is True


def test_bench_star_pair(capsys):
    code, out, _ = run(capsys, ["bench", FIG1, "--epsilons", "1/2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance,epsilon,profit,opt,ratio,repset_size,repset_bound,wall_ms"
    assert lines[1] == f"{FIG1},1/2,11,11,1,4,3456,"
    assert len(lines) == 2


def test_bench_timings_column(capsys):
    _, out, _ = run(capsys, ["bench", FIG1, "--epsilons", "1/2", "--timings"])
    row = out.splitlines()[1].split(",")
    assert row[-1] != ""


def test_bench_directory_and_jobs(tmp_path, capsys):
    for i in range(3):
        name = f"bm_{i:03d}.json"
        shutil.copy(FIXTURES / "corpus" / name, tmp_path / name)
    argv = ["bench", str(tmp_path), "--epsilons", "1/2,1/3"]
    code, sequential, _ = run(capsys, argv)
    assert code == 0
    lines = sequential.splitlines()
    assert len(lines) == 1 + 3 * 2
    code, parallel, _ = run(capsys, argv + ["--jobs", "2"])
    assert code == 0
    assert parallel == sequential


def test_bench_epsilon_validation(capsys):
    assert run(capsys, ["bench", FIG1, "--epsilons", ","])[0] == 2
    assert run(capsys, ["bench", FIG1, "--epsilons", "0"])[0] == 2


@pytest.mark.parametrize("eps", ["7", "0", "1", "-1/2", "x"])
def test_bench_epsilon_is_checked_without_rows(eps, tmp_path, capsys):
    """With no instance to build a row from, a bad ε still exits 2."""
    code, out, _ = run(capsys, ["bench", str(tmp_path), "--epsilons", f"1/2,{eps}"])
    assert code == 2
    assert out == ""


def test_argparse_exit_codes(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["busted"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["solve", FIG1]) == 2   # missing required --epsilon
    capsys.readouterr()


def test_invariant_violation_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("forced")

    monkeypatch.setattr(cli_mod, "brute_force_opt", boom)
    code, _, err = run(capsys, ["exact", FIG1])
    assert code == 4
    assert "invariant violation" in err


@pytest.mark.parametrize(
    "path", [FIG1, str(FIXTURES / "corpus" / "bm_007.json"),
             str(FIXTURES / "corpus" / "bi_004.json")],
    ids=["fig1", "bm_007", "bi_004"],
)
def test_solve_bytes_survive_optimize_flag(path):
    # python -O strips asserts and sets __debug__ = False; the solve
    # output must not notice
    src = pathlib.Path(cli_mod.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["-m", "bcopt.cli", "solve", path, "--epsilon", "1/2"]
    runs = [
        subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                       env=env, check=True).stdout
        for flags in ([], ["-O"])
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["solution"]["feasible"] is True


@pytest.mark.parametrize("argv", [
    ["solve", FIG1, "--epsilon", "1/2"],
    ["exact", FIG1],
    ["nps", FIG1],
    ["verify", str(FIXTURES / "corpus" / "bi_004.json"), "--check", "axioms"],
    ["bench", FIG1, "--epsilons", "1/2"],
])
def test_negative_max_exhaustive_is_an_input_error(argv, capsys):
    code, out, err = run(capsys, argv + ["--max-exhaustive", "-3"])
    assert code == 2 and out == ""
    assert err == "input error: --max-exhaustive must be nonnegative, got -3\n"
    # zero is a gate that every nonempty residual fails, not an input error
    assert run(capsys, argv + ["--max-exhaustive", "0"])[0] in (0, 3)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_jobs_below_one_is_an_input_error(jobs, capsys):
    code, out, err = run(capsys, ["bench", FIG1, "--epsilons", "1/2", "--jobs", jobs])
    assert code == 2 and out == ""
    assert err == f"input error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("jobs,tasks,workers", [
    (8, 2, [2]),   # never more workers than rows
    (2, 3, [2]),
    (4, 1, []),    # one row runs in process
])
def test_bench_starts_at_most_one_worker_per_row(jobs, tasks, workers, monkeypatch, capsys):
    import multiprocessing

    started = []

    class Pool:
        def __init__(self, n):
            started.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(t) for t in items]

    class Context:
        pass

    Context.Pool = Pool
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    eps = ",".join(["1/2", "1/3", "1/4"][:tasks])
    argv = ["bench", FIG1, "--epsilons", eps]
    code, out, _ = run(capsys, argv + ["--jobs", str(jobs)])
    assert code == 0 and len(out.splitlines()) == 1 + tasks
    assert started == workers
    assert out == run(capsys, argv)[1]


def test_verify_exchange_set_rejects_unknown_class(tmp_path, capsys):
    cand = tmp_path / "r999.json"
    cand.write_text(json.dumps({"r": 999, "alpha": "11", "ids": []}))
    code, out, err = run(
        capsys,
        ["verify", FIG1, "--check", "exchange-set", "--epsilon", "1/2",
         "--candidate", str(cand)],
    )
    assert code == 2 and out == ""
    assert err == "input error: class index 999 outside 1..3\n"


def _bi_004_with(tmp_path, edit):
    data = json.loads((FIXTURES / "corpus" / "bi_004.json").read_text())
    text = edit(data) or json.dumps(data)
    path = tmp_path / "edited.json"
    path.write_text(text)
    return str(path)


def test_string_id_in_a_matroid_spec_exits_2(tmp_path, capsys):
    def edit(data):
        data["constraint"]["matroids"][0]["blocks"][0][0] = "a"

    code, out, err = run(capsys, ["exact", _bi_004_with(tmp_path, edit)])
    assert code == 2 and out == ""
    assert err == "input error: bad element id: 'a'\n"


@pytest.mark.parametrize("where", ["string profit", "integer budget"])
def test_overlong_numerals_exit_2(where, tmp_path, capsys):
    """Numerals past Python's int digit limit (4,300 digits by default)
    are input errors, whether a string rational or a JSON integer."""
    digits = "1" * 5000

    def edit(data):
        if where == "string profit":
            data["elements"][0]["profit"] = digits
        else:
            data["budget"] = "BUDGET"
            return json.dumps(data).replace('"BUDGET"', digits)

    code, out, err = run(capsys, ["solve", _bi_004_with(tmp_path, edit), "--epsilon", "1/2"])
    assert code == 2 and out == ""
    assert err.startswith("input error: ")


def test_exact_prints_a_profit_past_the_str_digit_limit(tmp_path, capsys):
    """Two profits of 4,300 nines sum to 4,301 digits, one past the
    default limit of str() on an int: the report still prints them."""
    nines = "9" * 4300
    data = {
        "budget": "2",
        "constraint": {
            "type": "matroid_intersection",
            "matroids": [{"kind": "uniform", "rank": 2}] * 2,
        },
        "elements": [{"id": i, "profit": nines, "cost": "1"} for i in range(2)],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["exact", str(path)])
    assert code == 0 and err == ""
    sol = json.loads(out)["solution"]
    assert sol["ids"] == [0, 1]
    assert sol["profit"] == "1" + "9" * 4299 + "8"
    assert sol["cost"] == "2"


def _linear_bi(tmp_path, field):
    """A two-element BI file: a linear matroid over the given field, whose
    two columns are parallel, ∩ U(2)."""
    data = {
        "budget": "2",
        "constraint": {
            "type": "matroid_intersection",
            "matroids": [
                {"kind": "linear", "field": field, "columns": [[1], [1]]},
                {"kind": "uniform", "rank": 2},
            ],
        },
        "elements": [{"id": i, "profit": str(i + 1), "cost": "1"} for i in range(2)],
    }
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("field,code", [
    ("GF(2305843009213693951)", 0),         # 2**61 − 1, a prime
    ("GF(2305843009213693953)", 2),         # 2**61 + 1, divisible by 3
    ("GF(3317044064679887385961981)", 2),   # past the Miller–Rabin bound
    ("GF(" + "9" * 5000 + ")", 2),          # past the int digit limit
])
def test_gf_field_orders_answer_at_once(field, code, tmp_path, capsys):
    started = time.perf_counter()
    got, out, err = run(capsys, ["exact", _linear_bi(tmp_path, field)])
    assert time.perf_counter() - started < 1
    assert got == code
    if code:
        assert out == "" and err.startswith("input error: ")
    else:
        assert json.loads(out)["solution"]["ids"] == [1]

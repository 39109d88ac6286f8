import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from itertools import combinations

import pytest

import frattini
from frattini import bocksteindga, cli, extalg, fplin, koszul, pgroups, series, younghook
from frattini.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_DISAGREE,
    EXIT_INTERNAL,
    EXIT_NOT_CONTAINED,
    EXIT_OK,
    main,
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv + ["--format", "json"])
    assert err == ""
    return code, json.loads(out)


HEISENBERG = ["koszul", "-w", "2", "-p", "5", "-q", "e1^e2"]


def test_koszul_inline_text():
    code, out, err = invoke(HEISENBERG + ["--truncate", "5"])
    assert code == EXIT_OK
    assert err == ""
    assert "complex: w=2 r=1 p=5 (top degree 3)" in out
    assert "betti: 1 2 2 1" in out
    assert "q1 = e1^e2" in out
    assert "expansion through degree 5: 1 2 5 7 12 15" in out
    assert "recompose yes" in out


def test_koszul_inline_json():
    code, report = invoke_json(HEISENBERG)
    assert code == EXIT_OK
    assert report["command"] == "koszul"
    assert report["betti"] == [1, 2, 2, 1]
    assert report["w"] == 2 and report["r"] == 1 and report["p"] == 5
    assert report["hypothesis"]["p_gt_r_plus_1"] is True
    assert report["hypothesis"]["quadratics_independent"] is True
    assert len(report["representatives"]) == 4
    assert report["representatives"][0] == ["1"]
    assert report["poincare"]["checks"]["palindrome"] is True


def test_text_and_json_agree_on_numbers():
    _, out, _ = invoke(HEISENBERG)
    _, report = invoke_json(HEISENBERG)
    text_betti = next(line for line in out.splitlines() if line.startswith("betti:"))
    assert [int(tok) for tok in text_betti.split()[1:]] == report["betti"]


def test_koszul_file_with_quadratics(tmp_path):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps({"p": 5, "w": 2, "quadratics": [[[1, 2, 1]]]}))
    code, report = invoke_json(["koszul", str(path)])
    assert code == EXIT_OK
    assert report["betti"] == [1, 2, 2, 1]


def test_koszul_file_with_k_basis(tmp_path):
    path = tmp_path / "sub.json"
    payload = {
        "p": 5,
        "w": 2,
        "k_basis": [
            {"b": [1, 0], "q": []},
            {"b": [0, 1], "q": []},
            {"b": [0, 0], "q": [[1, 2, 1]]},
        ],
    }
    path.write_text(json.dumps(payload))
    code, report = invoke_json(["koszul", str(path)])
    assert code == EXIT_OK
    assert report["betti"] == [1, 2, 2, 1]
    assert report["hypothesis"]["bockstein_contained"] is True


def test_koszul_k_basis_not_contained(tmp_path):
    path = tmp_path / "bad.json"
    payload = {
        "p": 5,
        "w": 2,
        "k_basis": [
            {"b": [1, 0], "q": []},
            {"b": [0, 0], "q": [[1, 2, 1]]},
        ],
    }
    path.write_text(json.dumps(payload))
    code, out, err = invoke(["koszul", str(path)])
    assert code == EXIT_NOT_CONTAINED
    assert out == ""
    assert "corank 1" in err


def test_koszul_k_basis_degenerate(tmp_path):
    path = tmp_path / "degen.json"
    payload = {
        "p": 5,
        "w": 2,
        "k_basis": [
            {"b": [1, 0], "q": []},
            {"b": [2, 0], "q": []},
        ],
    }
    path.write_text(json.dumps(payload))
    code, _, err = invoke(["koszul", str(path)])
    assert code == EXIT_BAD_INPUT
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["koszul", "-w", "2", "-p", "5", "-q", "e1^^e2"],
        ["koszul", "-w", "2", "-p", "5", "-q", "e1"],
        ["koszul", "-w", "2", "-p", "9", "-q", "e1^e2"],
        ["koszul", "-w", "2", "-p", "2", "-q", "e1^e2"],
        ["koszul", "-w", "2"],
        ["unp", "-n", "7"],
        ["unp", "-n", "0"],
        ["series", "--numerator", "1,a", "-w", "2", "-r", "1"],
        ["series", "--numerator", "1,-2,1", "-w", "1", "-r", "1"],
        ["bockstein", "-n", "2", "-p", "3"],
        ["crosscheck", "--n-max", "9"],
        ["crosscheck", "--n-max", "2", "--primes", "4"],
    ],
)
def test_bad_input_exits_3(argv):
    code, out, err = invoke(argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:")


def test_file_and_inline_conflict(tmp_path):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps({"p": 5, "w": 2, "quadratics": [[[1, 2, 1]]]}))
    for inline in (["-w", "2"], ["-w", "0"], ["-p", "0"]):  # 0 is given, though falsy
        code, _, err = invoke(["koszul", str(path)] + inline)
        assert code == EXIT_BAD_INPUT, inline
        assert "not both" in err


def test_unreadable_and_malformed_files(tmp_path):
    code, _, err = invoke(["koszul", str(tmp_path / "missing.json")])
    assert code == EXIT_BAD_INPUT
    assert "cannot read" in err

    bad = tmp_path / "broken.json"
    bad.write_text("{")
    code, _, err = invoke(["koszul", str(bad)])
    assert code == EXIT_BAD_INPUT
    assert "not valid JSON" in err

    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({"p": 5}))
    code, _, err = invoke(["koszul", str(sparse)])
    assert code == EXIT_BAD_INPUT
    assert "required field" in err

    both = tmp_path / "both.json"
    both.write_text(json.dumps({"p": 5, "w": 2, "quadratics": [], "k_basis": []}))
    code, _, err = invoke(["koszul", str(both)])
    assert code == EXIT_BAD_INPUT
    assert "exactly one" in err


@pytest.mark.parametrize(
    "raw",
    [b"\xff", '{"p": 5, "w": 2, "quadratics": [], "note": "\u00e9"}'.encode("latin-1")],
    ids=["one-0xff-byte", "latin-1-e-acute"],
)
def test_koszul_file_that_is_not_utf8_is_bad_input(tmp_path, raw):
    """Both files used to exit 5 with an internal UnicodeDecodeError."""
    path = tmp_path / "latin.json"
    path.write_bytes(raw)
    code, out, err = invoke(["koszul", str(path)])
    assert code == EXIT_BAD_INPUT
    assert out == "" and "is not UTF-8 text" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"p": 7.9, "w": 2, "quadratics": [[[1, 2, 1]]]}, "field 'p' must be an integer"),
        ({"p": "7", "w": 2, "quadratics": [[[1, 2, 1]]]}, "field 'p' must be an integer"),
        ({"p": 7, "w": True, "quadratics": [[[1, 1, 1]]]}, "field 'w' must be a nonnegative integer"),
        ({"p": 7, "w": 2, "k_basis": [{"b": [1, False], "q": []}]}, "'b' must be a list of 2 integers"),
        ({"p": 7, "w": 2, "quadratics": [[[1, 2, True]]]}, "must hold integers"),
    ],
    ids=["p-float", "p-string", "w-bool", "b-entry-bool", "triple-entry-bool"],
)
def test_koszul_file_integer_fields_reject_floats_strings_and_booleans(tmp_path, payload, message):
    """Each of these ran before as if it held the integer it resembles."""
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(["koszul", str(path)])
    assert code == EXIT_BAD_INPUT
    assert out == "" and message in err


def test_dependent_quadratics_need_force():
    argv = ["koszul", "-w", "2", "-p", "5", "-q", "e1^e2", "-q", "2 e1^e2"]
    code, _, err = invoke(argv)
    assert code == EXIT_BAD_INPUT
    assert "error:" in err

    code, report = invoke_json(argv + ["--force"])
    assert code == EXIT_OK
    assert report["hypothesis"]["quadratics_independent"] is False
    assert report["warnings"]


def test_representative_truncation():
    argv = ["koszul", "-w", "3", "-p", "7", "--max-reps", "2"]
    code, report = invoke_json(argv)
    assert code == EXIT_OK
    assert report["betti"] == [1, 3, 3, 1]
    assert report["representatives_truncated"] is True
    assert all(len(names) <= 2 for names in report["representatives"])
    _, out, _ = invoke(argv)
    assert "truncated" in out

    code, report = invoke_json(argv + ["--full"])
    assert report.get("representatives_truncated") in (False, None)
    assert [len(names) for names in report["representatives"]] == [1, 3, 3, 1]


def test_unp_agreement_text():
    code, out, err = invoke(["unp", "-n", "3", "-p", "7", "--truncate", "6"])
    assert code == EXIT_OK
    assert err == ""
    assert "universal complex on n=3 generators, p=7" in out
    assert "betti: 1 3 8 12 8 3 1" in out
    assert "oracle: 1 3 8 12 8 3 1" in out
    assert "closed forms (degrees 0..3): 1 3 8 12" in out
    assert "verdict: AGREE" in out
    assert "\x1b[" not in out


def test_unp_json_report():
    code, report = invoke_json(["unp", "-n", "2", "-p", "5"])
    assert code == EXIT_OK
    assert report["betti"] == [1, 2, 2, 1]
    assert report["oracle"]["betti"] == [1, 2, 2, 1]
    assert report["verdict"] == "AGREE"
    assert all(row["agree"] for row in report["per_degree"])
    assert report["hypothesis"]["p_gt_r_plus_1"] is True


def test_unp_default_prime():
    code, report = invoke_json(["unp", "-n", "2"])
    assert code == EXIT_OK
    assert report["p"] == 3
    code, report = invoke_json(["unp", "-n", "4"])
    assert code == EXIT_OK
    assert report["p"] == 11


def test_unp_small_prime_is_informational():
    code, report = invoke_json(["unp", "-n", "3", "-p", "3"])
    assert code == EXIT_OK
    assert report["hypothesis"]["p_gt_r_plus_1"] is False
    assert report["verdict"] == "INFORMATIONAL"


def test_group_exhaustive_text():
    code, out, err = invoke(["group", "-n", "1", "-p", "3", "--mode", "exhaustive"])
    assert code == EXIT_OK
    assert err == ""
    assert "order: 9" in out
    assert "associativity: yes (all triples: 729)" in out
    assert "identity and inverses: yes" in out
    assert "omega_1 rank: 1" in out
    assert "exponent: 9" in out


def test_group_json_fields():
    code, report = invoke_json(
        ["group", "-n", "2", "-p", "5", "--group", "g", "--mode", "sampled", "--seed", "3"]
    )
    assert code == EXIT_OK
    assert report["group"] == "free on n generators"
    assert report["order"] == 5**6
    v = report["verification"]
    assert v["mode"] == "sampled"
    assert v["associativity_ok"] and v["identity_inverse_ok"] and v["order_p_central_ok"]
    assert v["omega1_rank"] == 3
    assert v["abelianization_rank"] == 3
    assert v["commutator_rank"] == 1
    assert v["exponent"] == 25
    assert v["seed"] == 3


def test_group_budget_exceeded():
    code, out, err = invoke(
        ["group", "-n", "3", "-p", "7", "--mode", "exhaustive", "--budget", "1000"]
    )
    assert code == EXIT_BUDGET
    assert out == ""
    assert "retry with --mode sampled" in err


def test_group_budget_error_gives_one_hint():
    code, out, err = invoke(["group", "-n", "1", "-p", "3", "--mode", "exhaustive", "--budget", "0"])
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: order 9 exceeds the exhaustive budget 0 (retry with --mode sampled)\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--budget", "-1"], "error: budget = -1: the enumeration budget cannot be negative\n"),
        (["--mode", "exhaustive", "--budget", "-1"], "error: budget = -1: the enumeration budget cannot be negative\n"),
        (["--mode", "sampled", "--budget", "-5"], "error: budget = -5: the enumeration budget cannot be negative\n"),
        (["--seed", "-1"], "error: seed = -1: the seed must be non-negative\n"),
    ],
    ids=["auto-budget", "exhaustive-budget", "sampled-budget", "seed"],
)
def test_group_negative_budget_or_seed_exits_3(flags, message):
    code, out, err = invoke(["group", "-n", "2", "-p", "3"] + flags)
    assert (code, out, err) == (EXIT_BAD_INPUT, "", message)


def test_bockstein_negative_seed_exits_3():
    """Random(-5) seeds the stream of Random(5), so --seed -5 would repeat
    --seed 5's Leibniz pairs under another name."""
    code, out, err = invoke(["bockstein", "-n", "2", "-p", "5", "--max-degree", "2", "--seed", "-5"])
    assert (code, out, err) == (EXIT_BAD_INPUT, "", "error: seed = -5: the seed must be non-negative\n")


@pytest.mark.parametrize("which", ["u", "g"])
def test_group_n_above_cap_exits_3_before_building(which, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("the group was built before n was checked")

    monkeypatch.setattr(pgroups, "unp_group", built)
    monkeypatch.setattr(pgroups, "free_two_step", built)
    code, out, err = invoke(["group", "-n", str(cli.GROUP_N_CAP + 1), "-p", "7", "--group", which])
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith(f"error: n = {cli.GROUP_N_CAP + 1}: ") and err.endswith(f"capped at n <= {cli.GROUP_N_CAP}\n")


def test_group_n_at_cap_is_not_refused(monkeypatch):
    def reached(n, p):
        raise fplin.InvalidInput(f"built U({n}, {p})")

    monkeypatch.setattr(pgroups, "unp_group", reached)
    code, out, err = invoke(["group", "-n", str(cli.GROUP_N_CAP), "-p", "7"])
    assert (code, err) == (EXIT_BAD_INPUT, f"error: built U({cli.GROUP_N_CAP}, 7)\n")


def test_group_n_32_exits_at_once():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "frattini.cli", "group", "-n", "32", "-p", "7", "--mode", "sampled"],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: n = 32: ") and "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 10


def test_bockstein_text():
    code, out, err = invoke(["bockstein", "-n", "2", "-p", "5", "--max-degree", "4", "--pairs", "20"])
    assert code == EXIT_OK
    assert err == ""
    assert "beta(x1) = 0" in out
    assert "beta(x(1,2)) = -x1 x2" in out
    assert "beta(z(1,2)) = z1 x2 - z2 x1" in out
    assert "after restriction: s1 x2 - s2 x1" in out
    assert "0 violations" in out


def test_bockstein_json():
    code, report = invoke_json(["bockstein", "-n", "2", "-p", "5", "--max-degree", "4", "--pairs", "10"])
    assert code == EXIT_OK
    formulas = {f["generator"]: f for f in report["formulas"]}
    assert formulas["z(1,2)"]["image"] == "z1 x2 - z2 x1"
    assert formulas["z(1,2)"]["restricted_image"] == "s1 x2 - s2 x1"
    assert formulas["x(1,2)"]["image"] == "-x1 x2"
    assert report["sweep"]["beta_squared_violations"] == 0
    assert report["sweep"]["leibniz_violations"] == 0
    assert report["sweep"]["leibniz_pairs"] == 10


def test_series_text():
    code, out, err = invoke(
        ["series", "--numerator", "1,2,2,1", "-w", "2", "-r", "1", "--truncate", "5"]
    )
    assert code == EXIT_OK
    assert err == ""
    assert "expansion through degree 5: 1 2 5 7 12 15" in out
    assert "palindrome yes" in out
    assert "recompose yes" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--numerator", "1", "-w", "100000", "-r", "0"],  # default truncation 2(w + r)
        ["series", "--numerator", "1,1", "-w", "1", "-r", "0", "--truncate", "100000000"],
        ["series", "--numerator", "1", "-w", "0", "-r", "0", "--truncate", "1000000"],
        ["series", "--numerator", "1", "-w", "999", "-r", "0", "--truncate", "1000"],
        ["koszul", "-w", "2", "-p", "5", "--truncate", "10000000"],
        HEISENBERG + ["--truncate", "333333"],
        ["unp", "-n", "3", "--truncate", "1000000"],
    ],
)
def test_series_expansion_over_the_cap_exits_4_before_betti(argv, monkeypatch):
    def betti_reached(*args, **kwargs):
        raise AssertionError("betti ran before the expansion was bounded")

    monkeypatch.setattr(koszul, "betti", betti_reached)
    code, out, err = invoke(argv)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: expanding through degree ")
    assert err.endswith(f"capped at {cli.EXPANSION_CAP} (lower --truncate)\n")


def test_series_expansion_at_the_cap_runs():
    code, report = invoke_json(["series", "--numerator", "1", "-w", "999", "-r", "0", "--truncate", "999"])
    assert (999 + 1) * (999 + 1) == cli.EXPANSION_CAP
    assert code == EXIT_OK
    assert len(report["expansion"]) == 1000 and report["recompose_ok"] is True


def test_series_json():
    code, report = invoke_json(["series", "--numerator", "1,0,1", "-w", "0", "-r", "1", "--truncate", "6"])
    assert code == EXIT_OK
    assert report["expansion"] == [1, 0, 2, 0, 2, 0, 2]
    assert report["checks"]["palindrome"] is True
    assert report["checks"]["ok"] is False
    assert report["recompose_ok"] is True


def test_series_report_expands_once(monkeypatch):
    calls = []
    expand = series.expand

    def counting(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(series, "expand", counting)
    code, report = invoke_json(["series", "--numerator", "1,2,2,1", "-w", "2", "-r", "1", "--truncate", "5"])
    assert code == EXIT_OK and report["recompose_ok"] is True
    assert len(calls) == 1


def test_crosscheck_text_and_json():
    argv = ["crosscheck", "--n-max", "2", "--primes", "5,7"]
    code, out, err = invoke(argv)
    assert code == EXIT_OK
    assert err == ""
    assert "overall (within guarantee): AGREE" in out

    code, report = invoke_json(argv)
    assert code == EXIT_OK
    assert len(report["rows"]) == 4
    assert all(row["agree"] for row in report["rows"])
    assert report["all_agree_within_guarantee"] is True


def _run_cli_subprocess(argv, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, "-m", "frattini.cli", *argv],
        capture_output=True,
        env=env,
        check=False,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["unp", "-n", "2", "--format", "json", "--seed", "5"],
        ["koszul", "-w", "2", "-p", "5", "-q", "e1^e2", "--format", "json"],
        ["bockstein", "-n", "2", "-p", "5", "--max-degree", "4", "--pairs", "15",
         "--format", "json", "--seed", "11"],
    ],
)
def test_json_output_is_deterministic(argv):
    first = _run_cli_subprocess(argv, "1")
    second = _run_cli_subprocess(argv, "42")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout.decode())


@pytest.mark.parametrize(
    "argv",
    [
        HEISENBERG + ["--truncate", "-3"],
        ["unp", "-n", "2", "--truncate", "-1"],
        ["unp", "-n", "6", "--truncate", "-1"],
        ["koszul", "-w", "7", "-p", "11", "-q", "e1^e2", "-q", "e3^e4", "--full", "--truncate", "-1"],
        ["series", "--numerator", "1,2,2,1", "-w", "2", "-r", "1", "--truncate", "-1"],
        HEISENBERG + ["--max-reps", "-1"],
        ["bockstein", "-n", "2", "-p", "5", "--max-degree", "-1"],
        ["bockstein", "-n", "2", "-p", "5", "--pairs", "-3"],
        ["group", "-n", "1", "-p", "3", "--mode", "sampled", "--triples", "0"],
    ],
)
def test_out_of_range_counts_exit_3(argv, monkeypatch):
    def betti_reached(*args, **kwargs):
        raise AssertionError("betti ran before the arguments were checked")

    monkeypatch.setattr(koszul, "betti", betti_reached)
    code, out, err = invoke(argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["unp"],
        ["unp", "-n", "2", "--bogus"],
        ["nosuchcommand"],
        ["bockstein", "-n", "x", "-p", "5"],
        ["crosscheck", "--workers", "2"],
        ["unp", "-n", "2", "--format", "yaml"],
    ],
)
def test_usage_errors_exit_3_not_2(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == EXIT_BAD_INPUT
    assert "error:" in err.getvalue()


@pytest.mark.parametrize("argv", [["--help"], ["koszul", "--help"]])
def test_help_exits_0(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == EXIT_OK
    assert "usage:" in out.getvalue()


@pytest.mark.parametrize("argv", [HEISENBERG, ["unp", "-n", "3"]], ids=["koszul", "unp"])
def test_out_of_memory_exits_4(monkeypatch, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.23 GiB for an array")

    monkeypatch.setattr(koszul, "betti", exhausted)
    code, out, err = invoke(argv)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


def test_bare_memory_error_names_the_failed_allocation(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(koszul, "betti", exhausted)
    code, out, err = invoke(HEISENBERG)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: out of memory (allocation failed); try a smaller input\n"


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
def test_internal_error_exits_5(monkeypatch, fmt):
    def broken(args):
        raise RuntimeError("runner broke")

    monkeypatch.setitem(cli._RUNNERS, "koszul", broken)
    code, out, err = invoke(HEISENBERG + fmt)
    assert code == EXIT_INTERNAL == 5
    assert out == ""
    assert err == "error: internal error (RuntimeError: runner broke)\n"


def test_internal_error_while_rendering_prints_no_partial_report(monkeypatch):
    def broken(report):
        raise KeyError("verdict")

    monkeypatch.setattr(cli, "_render_text", broken)
    code, out, err = invoke(HEISENBERG)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal error (KeyError: 'verdict')\n"
    assert invoke(HEISENBERG + ["--format", "json"])[0] == EXIT_OK


@pytest.mark.parametrize(
    "owner, name, argv",
    [
        (pgroups.PGroup, "verify", ["group", "-n", "2", "-p", "3"]),
        (bocksteindga, "bockstein", ["bockstein", "-n", "2", "-p", "5", "--max-degree", "2", "--pairs", "2"]),
        (koszul.KoszulComplex, "_independent", HEISENBERG),
    ],
    ids=["PGroup.verify", "bockstein", "KoszulComplex._independent"],
)
def test_value_error_inside_a_computation_exits_5(monkeypatch, owner, name, argv):
    """Only InvalidInput means refused input; any other ValueError is a bug."""

    def broken(*args, **kwargs):
        raise ValueError("check failed")

    monkeypatch.setattr(owner, name, broken)
    code, out, err = invoke(argv)
    assert (code, out, err) == (EXIT_INTERNAL, "", "error: internal error (ValueError: check failed)\n")


def test_refused_arguments_raise_invalid_input():
    assert frattini.InvalidInput is fplin.InvalidInput and issubclass(fplin.InvalidInput, ValueError)
    for cls in (
        extalg.ParseError,
        extalg.IndexOutOfRange,
        koszul.DegenerateSubspace,
        koszul.DependentQuadratics,
        bocksteindga.PrimeTooSmall,
        pgroups.ConstraintViolation,
    ):
        assert issubclass(cls, fplin.InvalidInput), cls


def test_k_basis_with_huge_w_is_refused_before_any_allocation(tmp_path):
    """An empty k_basis never builds a quadratic, so w must be checked on its own:
    otherwise canonicalize lists C(w, 2) pairs and dies of memory."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"p": 5, "w": 100000, "k_basis": []}))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "frattini.cli", "koszul", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_address_space,
        timeout=10,
        check=False,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stdout == "" and "out of memory" not in proc.stderr
    assert proc.stderr == "error: w + r = 100000 exceeds the 62-bit monomial encoding\n"


def test_bockstein_sweep_over_budget_exits_4_quickly(monkeypatch):
    start = time.perf_counter()
    code, out, err = invoke(["bockstein", "-n", "12", "-p", "5", "--max-degree", "6"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: 406481544 monomials of degree <= 6 exceed the sweep budget 1000000")

    def no_images(a):
        raise AssertionError("generator image listed before the sweep budget was checked")

    monkeypatch.setattr(bocksteindga, "bockstein", no_images)
    code, out, err = invoke(["bockstein", "-n", "100", "-p", "5"])
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        "error: 23132414997836611936 monomials of degree <= 6 exceed the sweep budget 1000000 (lower --max-degree)\n"
    )


def test_bockstein_sweep_past_recursion_depth():
    """N = n + C(n, 2) generators per block (1035 at n = 45): deeper than the
    interpreter's recursion limit, so the monomial enumeration must not recurse."""
    for n, monomials in ((45, 1036), (60, 1831)):
        code, report = invoke_json(["bockstein", "-n", str(n), "-p", "5", "--max-degree", "1", "--pairs", "5"])
        assert code == EXIT_OK
        assert report["sweep"]["monomials_checked"] == monomials
        assert report["sweep"]["beta_squared_violations"] == 0
        assert report["sweep"]["leibniz_violations"] == 0
        assert report["formulas"][-1] == {
            "generator": f"z({n - 1},{n})",
            "image": f"z{n - 1} x{n} - z{n} x{n - 1}",
            "restricted_image": f"s{n - 1} x{n} - s{n} x{n - 1}",
        }


# w + r = 22, weight-graded by its one two-term quadratic: accepted by the
# w + r cap, yet its dense blocks reach 152,460 x 213,444 at degree 11.
OVERSIZED_BLOCKS = ["koszul", "-w", "11", "-p", "11", "-q", "e1^e2+e3^e4"] + [
    arg for j in range(3, 12) for arg in ("-q", f"e1^e{j}")
] + ["-q", "e2^e3"]


def test_w_plus_r_17_reports_no_warning():
    """Representatives at w + r = 17 (11 monomial quadratics, multidegree blocks)."""
    argv = ["koszul", "-w", "6", "-p", "19"]
    for a, b in list(combinations(range(1, 7), 2))[:11]:
        argv += ["-q", f"e{a}^e{b}"]
    code, report = invoke_json(argv)
    assert code == EXIT_OK
    assert report["w"] + report["r"] == 17
    assert report["warnings"] == []


def test_oversized_block_refused_with_exit_4_naming_it():
    start = time.perf_counter()
    code, out, err = invoke(OVERSIZED_BLOCKS)
    assert time.perf_counter() - start < 5
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: degree 4: a dense 3630 x 3025 block needs up to 951665000 bytes; capped at 268435456\n"


def test_crosscheck_n_max_7_exits_3():
    code, out, err = invoke(["crosscheck", "--n-max", "7"])
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: n_max must be between 1 and 6")


def test_crosscheck_n_max_6_agrees():
    code, report = invoke_json(["crosscheck", "--n-max", "6", "--primes", "17"])
    assert code == EXIT_OK
    assert [row["n"] for row in report["rows"]] == [1, 2, 3, 4, 5, 6]
    assert all(row["agree"] and row["within_guarantee"] for row in report["rows"])
    assert report["rows"][-1]["koszul"] == younghook.unp_betti(6)
    assert report["all_agree_within_guarantee"] is True


def test_bockstein_n_above_cap_exits_3_before_building(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("the generators were built before n was checked")

    monkeypatch.setattr(bocksteindga, "Generators", built)
    monkeypatch.setattr(bocksteindga, "verify_differential", built)
    code, out, err = invoke(["bockstein", "-n", str(cli.BOCKSTEIN_N_CAP + 1), "-p", "5", "--max-degree", "0", "--pairs", "0"])
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith(f"error: n = {cli.BOCKSTEIN_N_CAP + 1}: ")
    assert err.endswith(f"capped at n <= {cli.BOCKSTEIN_N_CAP}\n")


def test_bockstein_n_at_cap_is_not_refused(monkeypatch):
    """The cap leaves room for the n = 100 listing that CI times."""
    def reached(n, p):
        raise fplin.InvalidInput(f"built the generators for n = {n}")

    assert cli.BOCKSTEIN_N_CAP >= 100
    monkeypatch.setattr(bocksteindga, "Generators", reached)
    code, out, err = invoke(["bockstein", "-n", str(cli.BOCKSTEIN_N_CAP), "-p", "5"])
    assert (code, err) == (EXIT_BAD_INPUT, f"error: built the generators for n = {cli.BOCKSTEIN_N_CAP}\n")

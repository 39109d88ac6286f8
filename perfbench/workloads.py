"""The benchmark's workloads: seeded inputs, fixed job lists and output checks.

Each workload is a list of jobs run back to back by one client.  A job is a
call of ``frattini.cli.main`` with generated arguments, or one library
operation; it returns an exit code and the text a user would read.  Checks
look at named fields only, so a report that gains a key still passes.

Import this module only after ``source.use_checkout_source()``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from frattini import cli, extalg, koszul, younghook

# Seed whose koszul-reps outputs are frozen below; other seeds get invariants.
DEFAULT_SEED = 0

KOSZUL_P = 11
KOSZUL_SHAPES = ((6, 5), (7, 4), (8, 3))  # (w, r) of the three `koszul --full` inputs
CUP_SHAPE = (6, 4)

# Frozen at the commit that defined the benchmark.
UNP5_BETTI = [1, 5, 40, 176, 440, 835, 1423, 1980, 1980, 1423, 835, 440, 176, 40, 5, 1]
KOSZUL_FROZEN = {  # DEFAULT_SEED: (w, r) -> (betti, sha256 of the representatives)
    (6, 5): ([1, 6, 20, 50, 100, 110, 110, 100, 50, 20, 6, 1],
             "26f76990116a25b50003fd725ae0017157e3c64ccf090546febea7f449b8afda"),
    (7, 4): ([1, 7, 17, 50, 77, 110, 110, 77, 50, 17, 7, 1],
             "b966d96281956811aed8c308767941e67624f66d039f77c7f649d8a2030450ae"),
    (8, 3): ([1, 8, 25, 43, 88, 99, 99, 88, 43, 25, 8, 1],
             "ca36fbf4e0682be4abf85e93505851e78d743a2ec537e0152fd9067594e1a633"),
}
CUP_FROZEN = (  # DEFAULT_SEED: (betti, sha256 of the products)
    [1, 6, 15, 39, 65, 72, 65, 39, 15, 6, 1],
    "889eafcbffae5c4223f4f2847614b57ef9b08689f4a395572a94d2cbf38d5539",
)
GROUP_EXHAUSTIVE = {"order": 3 ** 5, "omega1_rank": 3, "abelianization_rank": 2,
                    "commutator_rank": 1, "exponent": 9}
GROUP_SAMPLED = {"order": 7 ** 14, "omega1_rank": 10, "abelianization_rank": 4,
                 "commutator_rank": 6, "exponent": 49}
BOCKSTEIN_MONOMIALS = 19448


@dataclass(frozen=True)
class Job:
    """One job of a workload.

    ``call`` runs it and returns (exit code, stdout text, stderr text);
    ``check`` takes the stdout text and returns a failure message, or None
    when it is right.
    """

    label: str
    call: Callable[[], tuple[int, str, str]]
    check: Callable[[str], str | None]


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call() -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _first_failure(*pairs: tuple[bool, str]) -> str | None:
    return next((msg for ok, msg in pairs if not ok), None)


# -- inputs -------------------------------------------------------------------


def _quadratics(w: int, p: int, family: list[list[list[int]]]) -> list[extalg.ExtElement]:
    """ExtElements of quadratics given as [i, j, coefficient] triples, as in the CLI's input files."""
    amb = extalg.Ambient(w, 0, p)
    return [extalg.ExtElement(amb, {((1 << (i - 1)) | (1 << (j - 1)), 0): c for i, j, c in triples})
            for triples in family]


def _generic_family(rng: random.Random, w: int, r: int, p: int) -> list[list[list[int]]]:
    """r dense quadratics in e_1..e_w, redrawn until the library accepts them as independent."""
    pairs = [(i, j) for i in range(1, w + 1) for j in range(i + 1, w + 1)]
    while True:
        family = [[[i, j, c] for i, j in pairs if (c := rng.randrange(p))] for _ in range(r)]
        try:
            koszul.KoszulComplex(w, p, _quadratics(w, p, family))
        except koszul.DependentQuadratics:
            continue
        return family


def _input_names() -> list[str]:
    return [f"koszul_w{w}_r{r}.json" for w, r in KOSZUL_SHAPES] + ["cup_w{}_r{}.json".format(*CUP_SHAPE)]


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's input files into ``workdir``."""
    if workload != "koszul-reps":
        return
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, (w, r) in zip(_input_names(), KOSZUL_SHAPES + (CUP_SHAPE,)):
        doc = {"p": KOSZUL_P, "w": w, "quadratics": _generic_family(rng, w, r, KOSZUL_P)}
        (workdir / name).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# -- jobs and checks ------------------------------------------------------------


def _unp_failure(betti: list[int], oracle: list[int], verdict_ok: bool) -> str | None:
    return _first_failure(
        (betti == oracle, f"betti {betti} != oracle {oracle}"),
        (oracle == UNP5_BETTI, f"oracle {oracle} != frozen {UNP5_BETTI}"),
        (verdict_ok, "verdict is not AGREE"),
    )


def _unp_json_check(oracle: list[int]) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        doc = json.loads(text)
        return _unp_failure(doc["betti"], oracle, doc["verdict"] == "AGREE")

    return check


def _unp_text_check(oracle: list[int]) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        lines = text.splitlines()
        betti = next((line for line in lines if line.startswith("betti: ")), "")
        return _unp_failure([int(tok) for tok in betti.split()[1:]], oracle, "verdict: AGREE" in lines)

    return check


def _unp_jobs() -> list[Job]:
    oracle = younghook.unp_betti(5)
    return [
        Job("unp -n 5 --format json", cli_call(["unp", "-n", "5", "--format", "json"]), _unp_json_check(oracle)),
        Job("unp -n 5 -p 2147483647", cli_call(["unp", "-n", "5", "-p", "2147483647"]), _unp_text_check(oracle)),
    ]


def _koszul_check(w: int, frozen) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        doc = json.loads(text)
        betti, reps, poincare = doc["betti"], doc["representatives"], doc["poincare"]
        failure = _first_failure(
            (poincare["checks"]["ok"], "series checks failed"),
            (poincare["recompose_ok"], "series does not recompose"),
            (not doc["representatives_truncated"], "representatives truncated"),
            ([len(r) for r in reps] == betti, "representative counts differ from betti"),
            (betti[:2] == [1, w], f"betti starts {betti[:2]}, expected [1, {w}]"),
        )
        if failure is None and frozen is not None:
            failure = _first_failure(
                (betti == frozen[0], f"betti {betti} != frozen {frozen[0]}"),
                (_digest(reps) == frozen[1], "representatives differ from the frozen digest"),
            )
        return failure

    return check


def _cup_call(path: Path) -> Callable[[], tuple[int, str, str]]:
    """betti with representatives, then every degree-1 class times every class of degree 1 and 2."""

    def call() -> tuple[int, str, str]:
        doc = json.loads(path.read_text(encoding="utf-8"))
        w, p = doc["w"], doc["p"]
        table = koszul.betti(koszul.KoszulComplex(w, p, _quadratics(w, p, doc["quadratics"])))
        ones = table.classes(1)
        products = []
        for i, a in enumerate(ones):
            for degree in (1, 2):
                for j, b in enumerate(table.classes(degree)):
                    rep = koszul.cup(a, b).representative
                    terms = [[list(m.e_set), list(m.x_set), c] for m, c in rep.terms()]
                    products.append({"a": i, "b": j, "degree": degree, "terms": terms})
        return 0, json.dumps({"p": p, "betti": list(table.dims), "products": products}, sort_keys=True), ""

    return call


def _cup_check(w: int, frozen) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        doc = json.loads(text)
        betti, products, p = doc["betti"], doc["products"], doc["p"]
        flat = {(x["a"], x["b"], x["degree"]): {(tuple(e), tuple(s)): c for e, s, c in x["terms"]} for x in products}
        anti = all(
            flat[(i, j, 1)] == {k: (-c) % p for k, c in flat[(j, i, 1)].items()}
            for i in range(betti[1]) for j in range(betti[1])
        )
        failure = _first_failure(
            (betti[:2] == [1, w], f"betti starts {betti[:2]}, expected [1, {w}]"),
            (len(products) == betti[1] * (betti[1] + betti[2]), f"{len(products)} products"),
            (anti, "degree-1 cup products are not anticommutative"),
        )
        if failure is None and frozen is not None:
            failure = _first_failure(
                (betti == frozen[0], f"betti {betti} != frozen {frozen[0]}"),
                (_digest(products) == frozen[1], "cup products differ from the frozen digest"),
            )
        return failure

    return check


def _koszul_jobs(seed: int, workdir: Path) -> list[Job]:
    names = _input_names()
    jobs = []
    for name, shape in zip(names, KOSZUL_SHAPES):
        frozen = KOSZUL_FROZEN[shape] if seed == DEFAULT_SEED else None
        path = workdir / name
        jobs.append(Job(f"koszul {name} --full", cli_call(["koszul", str(path), "--full", "--format", "json"]),
                        _koszul_check(shape[0], frozen)))
    frozen = CUP_FROZEN if seed == DEFAULT_SEED else None
    jobs.append(Job(f"betti + cup on {names[-1]}", _cup_call(workdir / names[-1]), _cup_check(CUP_SHAPE[0], frozen)))
    return jobs


def _group_check(expected: dict, triples: int, exhaustive: bool) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        doc = json.loads(text)
        v = doc["verification"]
        got = {"order": doc["order"], **{k: v[k] for k in expected if k != "order"}}
        return _first_failure(
            (got == expected, f"invariants {got} != frozen {expected}"),
            (v["associativity_triples"] == triples, f"{v['associativity_triples']} triples, expected {triples}"),
            (v["associativity_exhaustive"] == exhaustive, "wrong associativity mode"),
            (v["associativity_ok"] and v["identity_inverse_ok"] and v["order_p_central_ok"], "an axiom failed"),
        )

    return check


def _group_jobs(seed: int) -> list[Job]:
    return [
        Job("group -n 2 -p 3 --mode exhaustive",
            cli_call(["group", "-n", "2", "-p", "3", "--mode", "exhaustive", "--format", "json"]),
            _group_check(GROUP_EXHAUSTIVE, (3 ** 5) ** 3, True)),
        Job("group -n 4 -p 7 --mode sampled",
            cli_call(["group", "-n", "4", "-p", "7", "--mode", "sampled", "--seed", str(seed), "--format", "json"]),
            _group_check(GROUP_SAMPLED, 10 ** 5, False)),
    ]


def _bockstein_check(text: str) -> str | None:
    sweep = json.loads(text)["sweep"]
    return _first_failure(
        (sweep["beta_squared_violations"] == 0, f"{sweep['beta_squared_violations']} beta^2 violations"),
        (sweep["leibniz_violations"] == 0, f"{sweep['leibniz_violations']} Leibniz violations"),
        (sweep["leibniz_pairs"] == 200, f"{sweep['leibniz_pairs']} Leibniz pairs"),
        (sweep["monomials_checked"] == BOCKSTEIN_MONOMIALS,
         f"{sweep['monomials_checked']} monomials, expected {BOCKSTEIN_MONOMIALS}"),
    )


def _bockstein_jobs(seed: int) -> list[Job]:
    argv = ["bockstein", "-n", "4", "-p", "7", "--max-degree", "7", "--pairs", "200",
            "--seed", str(seed), "--format", "json"]
    return [Job("bockstein -n 4 -p 7 --max-degree 7", cli_call(argv), _bockstein_check)]


def jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's fixed job list; inputs must already be in ``workdir``."""
    if workload == "unp-ranks":
        return _unp_jobs()
    if workload == "koszul-reps":
        return _koszul_jobs(seed, workdir)
    if workload == "group-verify":
        return _group_jobs(seed)
    if workload == "bockstein-sweep":
        return _bockstein_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")

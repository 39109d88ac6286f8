"""Frozen golden outputs: exact stdout bytes and exit codes of fixed CLI runs,
plus the text of every cup product of degree-1 classes of one small complex.

The files under ``tests/golden/`` are never regenerated; a mismatch means an
output changed.  ``python tests/test_golden.py`` writes only files that are
missing.  They were written in two groups, each from the code before the change
that the group guards:

* every file except the three below: at commit 02697f4, before the shared
  term-map refactor;
* ``unp_n5_json.out``, ``unp_n5_pmax_text.out`` and ``crosscheck_n5_json.out``:
  at commit b483bec, before ranks-only Betti numbers were computed by graded
  blocks (the last one includes p = 7, outside the n = 5 guarantee);
* ``koszul_generic_w6_r4_pmax_full_json.out`` and
  ``koszul_dependent_w5_r4_p5_force_full_json.out``: at commit 3196726, before
  quotient representatives were computed by one batched elimination per degree;
* ``bockstein_n4_p7_d7_json.out``: at commit 7b4cd54, before the Bockstein was
  computed by one Leibniz pass over the factors of each monomial (the bench
  job: the beta^2 = 0 sweep up to degree 7, z-exponents up to 3, and 200
  seeded Leibniz pairs);
* ``koszul_monomial_w5_r7_p7_full_json.out`` and ``cup_products_unp3.txt``: at
  commit c479c70, before representatives and cup products were computed on the
  graded blocks of each degree.  Both use the Z^w multidegree grading (every
  quadratic a single monomial); every earlier representative golden uses the
  weight grading;
* ``unp_n6_json.out`` and ``unp_n5_p3_json.out``: at commit 9ed423a, before
  ranks-only Betti numbers of single-monomial complete complexes were computed
  one block per S_w orbit of multidegrees (at p = 3, U(5)'s dimensions depend on
  p, so the second file pins that path where torsion shows).
* ``unp_n6_p3_json.out``: at commit b7b230d, before the orbit blocks were
  ranked once per Poincare-dual pair; U(6) at p = 3 shows torsion (b_4 = 1742
  against the oracle's 1616) and has the self-dual blocks that no other golden
  pins.
* ``group_n4_p7_sampled_json.out``, ``group_n2_p3_exhaustive_json.out``,
  ``group_n2_p5_json.out`` and ``group_g_n2_p46337_sampled_json.out``: at
  commit a01b4e0, before ``PGroup`` took residues by floor division, reduced
  only the bracket columns and formed its commutators and p-th powers as
  stacked rows.  The first is the bench job; the third is ``auto`` mode with
  exhaustive centrality and sampled triples (order^3 > 1e8); the last has p at
  ``_PGROUP_PRIME_CAP``, where residues come closest to the int64 bound.

Inputs: ``k_basis_w3_p5.json`` is a hand-written k-invariant basis (w = 3,
p = 5); ``generic_w4_r3_p7.json`` holds three quadratics in four variables over
F_7 drawn with ``random.Random(7)``; ``generic_w6_r4_pmax.json`` holds four
dense quadratics in six variables over F_p, p = 2^31 - 1, every coefficient
drawn from [1, p) with ``random.Random(6)`` (products of residues there come
closest to the int64 bound); ``dependent_w5_r4_p5.json`` holds three quadratics
in five variables over F_5 drawn with ``random.Random(5)`` followed by a repeat
of the second, so its boundaries have many dependent columns.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from frattini import Ambient, KoszulComplex, betti, cup, parse, unp_complex
from frattini.bocksteindga import Generators, bockstein, restrict_to_unp
from frattini.cli import main
from frattini.extalg import QuadraticForm

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CLI_CASES = {
    "koszul_inline_text": ["koszul", "-w", "2", "-p", "5", "-q", "e1^e2"],
    "koszul_inline_json": ["koszul", "-w", "2", "-p", "5", "-q", "e1^e2", "--format", "json"],
    "koszul_k_basis_full_json": ["koszul", "{inputs}/k_basis_w3_p5.json", "--full", "--format", "json"],
    "koszul_generic_full_json": ["koszul", "{inputs}/generic_w4_r3_p7.json", "--full", "--format", "json"],
    "unp_n3_json": ["unp", "-n", "3", "--format", "json"],
    "unp_n4_p5_json": ["unp", "-n", "4", "-p", "5", "--format", "json"],
    "bockstein_text": ["bockstein", "-n", "3", "-p", "5", "--max-degree", "5", "--pairs", "20"],
    "bockstein_json": ["bockstein", "-n", "3", "-p", "5", "--max-degree", "5", "--pairs", "20", "--format", "json"],
    "series_text": ["series", "--numerator", "1,2,2,1", "-w", "2", "-r", "1"],
    "series_json": ["series", "--numerator", "1,2,2,1", "-w", "2", "-r", "1", "--format", "json"],
    "crosscheck_json": ["crosscheck", "--n-max", "3", "--primes", "7,11", "--format", "json"],
    "group_json": ["group", "-n", "1", "-p", "3", "--format", "json"],
    "unp_n5_json": ["unp", "-n", "5", "--format", "json"],
    "unp_n5_pmax_text": ["unp", "-n", "5", "-p", "2147483647"],
    "crosscheck_n5_json": ["crosscheck", "--n-max", "5", "--primes", "7,17", "--format", "json"],
    "koszul_generic_w6_r4_pmax_full_json": [
        "koszul", "{inputs}/generic_w6_r4_pmax.json", "--full", "--format", "json",
    ],
    "koszul_dependent_w5_r4_p5_force_full_json": [
        "koszul", "{inputs}/dependent_w5_r4_p5.json", "--force", "--full", "--format", "json",
    ],
    "bockstein_n4_p7_d7_json": [
        "bockstein", "-n", "4", "-p", "7", "--max-degree", "7", "--pairs", "200", "--seed", "0",
        "--format", "json",
    ],
    "koszul_monomial_w5_r7_p7_full_json": [
        "koszul", "-w", "5", "-p", "7", "-q", "e1^e2", "-q", "3 e2^e3", "-q", "e3^e4", "-q", "2 e4^e5",
        "-q", "e1^e5", "-q", "5 e1^e3", "-q", "e2^e4", "--full", "--format", "json",
    ],
    "unp_n6_json": ["unp", "-n", "6", "--format", "json"],
    "unp_n5_p3_json": ["unp", "-n", "5", "-p", "3", "--format", "json"],
    "unp_n6_p3_json": ["unp", "-n", "6", "-p", "3", "--format", "json"],
    "group_n4_p7_sampled_json": ["group", "-n", "4", "-p", "7", "--mode", "sampled", "--seed", "0", "--format", "json"],
    "group_n2_p3_exhaustive_json": ["group", "-n", "2", "-p", "3", "--mode", "exhaustive", "--format", "json"],
    "group_n2_p5_json": ["group", "-n", "2", "-p", "5", "--format", "json"],
    "group_g_n2_p46337_sampled_json": [
        "group", "-n", "2", "-p", "46337", "--group", "g", "--mode", "sampled", "--triples", "2000", "--seed", "1",
        "--format", "json",
    ],
}


def _run_cli(argv) -> bytes:
    """Exit code line followed by the exact stdout of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([arg.replace("{inputs}", str(INPUTS)) for arg in argv])
    return f"exit {code}\n".encode() + out.getvalue().encode("utf-8")


def _cup_products() -> bytes:
    amb = Ambient(4, 0, 7)
    quads = [parse(text, amb) for text in ("e1^e2 + 2 e3^e4", "e1^e3 + e2^e4", "3 e1^e4")]
    table = betti(KoszulComplex(4, 7, quads))
    ones = table.classes(1)
    lines = [f"{a} * {b} = {cup(a, b)}" for a in ones for b in ones]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cup_products_unp3() -> bytes:
    """Every degree-1 class of U(3) at p = 7 times every class of degree 1, 2 and 3."""
    table = betti(unp_complex(3, 7))
    lines = [f"{a} * {b} = {cup(a, b)}" for a in table.classes(1) for d in (1, 2, 3) for b in table.classes(d)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _element_texts() -> bytes:
    """str and repr of both element classes, including a quadratic form."""
    amb = Ambient(3, 2, 5)
    gens = Generators(2, 7)
    elems = [
        parse("3 e1^e2 - e3 + 2 e1^x2 + 4", amb),
        parse("e1^e2 + 4 e2^e3", Ambient(3, 0, 5)),
        QuadraticForm.from_element(parse("2 e1^e3 + e1^e2", Ambient(3, 0, 5))) * 3,
        bockstein(gens.zeta_pair(1, 2) * gens.zeta(1) * gens.x_pair(1, 2)),
        restrict_to_unp(bockstein(gens.zeta_pair(1, 2)) * gens.zeta(1) + 3 * gens.zeta(2)),
    ]
    lines = [f"{e}\n{e!r}" for e in elems]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _expected():
    cases = {f"{name}.out": (lambda argv=argv: _run_cli(argv)) for name, argv in CLI_CASES.items()}
    cases["cup_products.txt"] = _cup_products
    cases["cup_products_unp3.txt"] = _cup_products_unp3
    cases["element_texts.txt"] = _element_texts
    return cases


@pytest.mark.parametrize("name", sorted(_expected()))
def test_golden_output(name):
    assert _expected()[name]() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, produce in _expected().items():
        path = GOLDEN / name
        if not path.exists():
            path.write_bytes(produce())
            print(f"wrote {path}", file=sys.stderr)

"""Command-line interface tying the modules together.

Subcommands:
    koszul      homology of a complex given inline quadratics or an input file
    unp         the universal complex on n generators vs the partition oracle
    group       construct U(n,p) or the free group and verify its axioms
    bockstein   differential formulas plus the beta^2 = 0 / Leibniz sweep
    series      expand q(t) / (1 - t^2)^v and run the numerator checks
    crosscheck  Koszul-vs-oracle agreement matrix over a range of n and p

Exit codes: a runner returns 0 or 1, and ``main`` chooses every other code
once, by the type of the exception a runner raises.  0 success; 1 a
verification disagreed where agreement is guaranteed; 2 the Bockstein block is
not contained in the input subspace (``koszul.BocksteinNotContained``); 3
invalid input (``fplin.InvalidInput``, from the library or from a check here),
including group -n above GROUP_N_CAP and bockstein -n above BOCKSTEIN_N_CAP; 4
a resource limit was hit (``fplin.BudgetExceeded`` or ``MemoryError``): the
group enumeration budget (retry with --mode sampled), the Bockstein sweep
budget (lower --max-degree), the series expansion bound
(truncate + 1)(w + r + 1) <= EXPANSION_CAP of series, koszul and unp (lower
--truncate), a Koszul block over fplin.BLOCK_CAP (fplin.check_block) or the
available memory ("error: out of memory"); 5
internal error (any other exception, a ``ValueError`` that is not
``InvalidInput`` included: "error: internal error (...)", nothing on stdout).

Machine-readable output (--format json) is byte-identical for identical
arguments and seed.  The only environment variable consulted is NO_COLOR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from math import comb
from typing import Any

from . import bocksteindga, koszul, pgroups, series, younghook
from .extalg import Ambient, ExtElement, ParseError, QuadraticForm, parse
from .fplin import BudgetExceeded, InvalidInput, Prime, as_prime

__all__ = [
    "main",
    "run_bockstein",
    "run_crosscheck",
    "run_group",
    "run_koszul",
    "run_series",
    "run_unp",
]

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_NOT_CONTAINED = 2
EXIT_BAD_INPUT = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

# ``group -n`` above this is refused.  Memory stays flat in n; time sets the cap:
# ``PGroup._mult`` runs one round of numpy calls per bracket coordinate, C(n, 2)
# of them, on chunks that narrow as n' = C(n + 1, 2) grows.  At n = 20, p = 7 in
# sampled mode (2-core x86-64, numpy 2.4) the default 10^5 triples took 8.0 s
# and 41 MiB with --group g and 8.4 s and 39 MiB for U(20, 7), about 90 % of
# it in ``_mult`` (1.0 s and 1.2 s with --triples 1000).
GROUP_N_CAP = 20
# ``bockstein -n`` above this is refused.  The listing of 2n + C(n, 2) generator
# images grows with n^2 whatever the sweep budget: with --max-degree 0 --pairs 0
# (2-core x86-64, numpy 2.4) n = 200 took 0.76 s at 73 MiB and n = 400 3.95 s
# at 203 MiB, and n = 1000 gave no answer in 30 s under a 1 GiB address space.
BOCKSTEIN_N_CAP = 200
# Expanding a series through degree T with denominator exponent v = w + r
# runs about (T + 1)(v + 1) big-integer steps and holds T + 1 coefficients;
# at the cap ``series --format json`` took 0.7-1.3 s and up to 114 MiB on that
# box, and 3.7 s and 364 MiB at four times it.
EXPANSION_CAP = 10 ** 6


def _least_odd_prime_above(bound: int) -> Prime:
    candidate = max(3, bound + 1)
    if candidate % 2 == 0:
        candidate += 1
    while True:
        try:
            return as_prime(candidate)
        except InvalidInput:
            candidate += 2


def _is_int(value) -> bool:
    """Whether a JSON value is an integer; true and false are not, though Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _quadratic_from_triples(triples, amb: Ambient) -> ExtElement:
    terms: dict[tuple[int, int], int] = {}
    for entry in triples:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise InvalidInput(f"quadratic entry {entry!r} is not an [i, j, coeff] triple")
        i, j, c = entry
        if not all(map(_is_int, entry)):
            raise InvalidInput(f"quadratic entry {entry!r} must hold integers")
        if not 1 <= i < j <= amb.w:
            raise InvalidInput(f"pair ({i}, {j}) needs 1 <= i < j <= w = {amb.w}")
        key = ((1 << (i - 1)) | (1 << (j - 1)), 0)
        terms[key] = terms.get(key, 0) + c
    return ExtElement(amb, terms)


def _load_koszul_input(args: argparse.Namespace) -> tuple[int, Prime, object]:
    """Returns (w, p, payload) where payload is a list of quadratics or a KInvariantSubspace."""
    path = args.input
    if path is not None:
        if args.quadratic or args.w is not None or args.p is not None:
            raise InvalidInput("give either an input file or inline -w/-p/--quadratic, not both")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InvalidInput(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path} is not UTF-8 text: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidInput("input file must hold a JSON object")
        missing = {"p", "w"} - data.keys()
        if missing:
            raise InvalidInput(f"input file lacks required field(s): {', '.join(sorted(missing))}")
        w = data["w"]
        if not _is_int(w) or w < 0:
            raise InvalidInput("field 'w' must be a nonnegative integer")
        if not _is_int(data["p"]):
            raise InvalidInput("field 'p' must be an integer")
        amb = Ambient(w, 0, as_prime(data["p"]))
        has_q = "quadratics" in data
        has_k = "k_basis" in data
        if has_q == has_k:
            raise InvalidInput("input file needs exactly one of 'quadratics' or 'k_basis'")
        if has_q:
            if not isinstance(data["quadratics"], list):
                raise InvalidInput("'quadratics' must be a list")
            quads = [_quadratic_from_triples(q, amb) for q in data["quadratics"]]
            return w, amb.p, quads
        if not isinstance(data["k_basis"], list):
            raise InvalidInput("'k_basis' must be a list")
        entries = []
        for obj in data["k_basis"]:
            if not (isinstance(obj, dict) and "b" in obj and "q" in obj):
                raise InvalidInput("each k_basis entry must be an object with 'b' and 'q'")
            bvec = obj["b"]
            if not (isinstance(bvec, list) and len(bvec) == w and all(map(_is_int, bvec))):
                raise InvalidInput(f"'b' must be a list of {w} integers")
            quad = _quadratic_from_triples(obj["q"], amb)
            entries.append((tuple(bvec), quad))
        return w, amb.p, koszul.KInvariantSubspace(w, amb.p, tuple(entries))

    w, p = args.w, args.p
    exprs = args.quadratic or []
    if w is None or p is None:
        raise InvalidInput("inline mode needs -w and -p (or pass an input file)")
    amb = Ambient(w, 0, as_prime(p))
    quads = []
    for text in exprs:
        try:
            quads.append(QuadraticForm.from_element(parse(text, amb)))
        except ParseError as exc:
            raise InvalidInput(f"cannot parse quadratic {text!r}: {exc}") from exc
        except InvalidInput as exc:
            raise InvalidInput(f"{text!r} is not a quadratic form: {exc}") from exc
    return w, amb.p, quads


def _check_truncation(truncation: int | None) -> None:
    """Refuse a negative ``--truncate``; each runner calls this before computing."""
    if truncation is not None and truncation < 0:
        raise InvalidInput("truncation degree must be nonnegative")


def _expansion_degree(truncation: int | None, w: int, r: int) -> int:
    """The truncation degree of the series, 2(w + r) by default, refused with
    exit 4 when the expansion would take more than ``EXPANSION_CAP`` steps."""
    truncate = 2 * (w + r) if truncation is None else truncation
    steps = (truncate + 1) * (w + r + 1)
    if steps > EXPANSION_CAP:
        raise BudgetExceeded(
            f"expanding through degree {truncate} with w + r = {w + r} takes"
            f" (truncate + 1)(w + r + 1) = {steps} steps; capped at {EXPANSION_CAP} (lower --truncate)",
        )
    return truncate


def _series_report(q: series.PoincarePolynomial, w: int, r: int, truncate: int) -> dict:
    """Expansion of q(t) / (1 - t^2)^(w+r) through degree ``truncate`` and the numerator checks."""
    s = series.PoincareSeries(q, w + r)
    chk = series.checks(q, w, r)
    expansion = series.expand(s, truncate)
    return {
        "numerator": list(q.coefficients),
        "numerator_text": str(q),
        "series_text": str(s),
        "truncation_degree": truncate,
        "expansion": expansion,
        "checks": {
            "palindrome": chk.palindrome,
            "euler_zero": chk.euler_zero,
            "degree_match": chk.degree_match,
            "ok": chk.ok(w),
        },
        "recompose_ok": series.recomposes_to_numerator(s, expansion),
    }


def _complex_report(
    cx: koszul.KoszulComplex,
    caught: list[warnings.WarningMessage],
    *,
    truncation: int | None,
    max_reps: int | None,
    with_representatives: bool,
) -> dict:
    """Report shared by koszul and unp.  ``caught`` holds the warnings from building ``cx``."""
    truncate = _expansion_degree(truncation, cx.w, cx.r)
    table = koszul.betti(cx, with_representatives=with_representatives)
    warnings_out = [str(item.message) for item in caught]
    poincare = _series_report(series.from_betti(table), cx.w, cx.r, truncate)
    poincare["denominator_exponent"] = cx.top_degree

    if not cx.hypothesis_met:
        warnings_out.append(
            f"p = {int(cx.p)} <= r + 1 = {cx.r + 1}: the collapse guarantee does not"
            " apply; dimensions are reported as computed"
        )

    report: dict[str, Any] = {
        "p": int(cx.p),
        "w": cx.w,
        "r": cx.r,
        "top_degree": cx.top_degree,
        "quadratics": [str(qd) for qd in cx.quadratics],
        "hypothesis": {
            "p_gt_r_plus_1": cx.hypothesis_met,
            "quadratics_independent": cx.quadratics_independent,
        },
        "betti": list(table.dims),
        "poincare": poincare,
        "warnings": warnings_out,
    }
    if with_representatives:
        reps = table.representatives
        report["representatives"] = [[str(rep) for rep in row[:max_reps]] for row in reps]
        report["representatives_truncated"] = max_reps is not None and any(len(row) > max_reps for row in reps)
    return report


def run_koszul(args: argparse.Namespace) -> tuple[dict, int]:
    if args.max_reps < 0:
        raise InvalidInput("--max-reps must be nonnegative")
    _check_truncation(args.truncate)
    w, p, payload = _load_koszul_input(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(payload, koszul.KInvariantSubspace):
            cx = koszul.canonicalize(payload)
        else:
            cx = koszul.KoszulComplex(w, p, payload, force=args.force)
        max_reps = None if args.full else args.max_reps
        report = _complex_report(cx, caught, truncation=args.truncate, max_reps=max_reps, with_representatives=True)
    report["command"] = "koszul"
    if isinstance(payload, koszul.KInvariantSubspace):
        report["hypothesis"]["bockstein_contained"] = True
    return report, EXIT_OK


def run_unp(args: argparse.Namespace) -> tuple[dict, int]:
    _check_truncation(args.truncate)
    n = args.n
    if n < 1:
        raise InvalidInput("n must be at least 1")
    if n > 6:
        raise InvalidInput(f"n = {n}: the complex has 2^{n + comb(n, 2)} monomials; capped at n <= 6")
    p = as_prime(args.p) if args.p is not None else _least_odd_prime_above(comb(n, 2) + 1)
    cx = koszul.unp_complex(n, p)
    report = _complex_report(cx, [], truncation=args.truncate, max_reps=None, with_representatives=False)
    oracle = younghook.unp_betti(n)
    per_degree = []
    all_agree = True
    for d in range(cx.top_degree + 1):
        agree = report["betti"][d] == oracle[d]
        all_agree = all_agree and agree
        per_degree.append(
            {"degree": d, "koszul": report["betti"][d], "oracle": oracle[d], "agree": agree}
        )
    verdict = ("AGREE" if all_agree else "DISAGREE") if cx.hypothesis_met else "INFORMATIONAL"
    closed = [younghook.closed_form(n, i) for i in range(min(3, cx.top_degree) + 1)]

    report["command"] = "unp"
    report["n"] = n
    report["hypothesis"]["bockstein_contained"] = True
    report["oracle"] = {"betti": list(oracle), "closed_forms_0_to_3": closed}
    report["per_degree"] = per_degree
    report["verdict"] = verdict
    code = EXIT_OK if verdict in ("AGREE", "INFORMATIONAL") else EXIT_DISAGREE
    return report, code


def run_group(args: argparse.Namespace) -> tuple[dict, int]:
    n = args.n
    if n < 1:
        raise InvalidInput("n must be at least 1")
    if n > GROUP_N_CAP:
        raise InvalidInput(
            f"n = {n}: each group product takes one round of array operations per"
            f" bracket coordinate, {comb(n, 2)} of them; both groups are capped at n <= {GROUP_N_CAP}",
        )
    p = as_prime(args.p)
    which = args.group
    if which == "u":
        group = pgroups.unp_group(n, p)
    else:
        group = pgroups.PGroup(pgroups.free_two_step(n), p)
    try:
        result = group.verify(
            mode=args.mode, budget=args.budget, triples=args.triples, seed=args.seed
        )
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc} (retry with --mode sampled)") from exc
    report = {
        "command": "group",
        "n": n,
        "p": int(p),
        "group": "U(n,p)" if which == "u" else "free on n generators",
        "order": group.order,
        "constrained": group.constrained,
        "verification": {
            "mode": result.mode,
            "group_order": result.group_order,
            "associativity_ok": result.associativity_ok,
            "associativity_exhaustive": result.associativity_exhaustive,
            "associativity_triples": result.associativity_triples,
            "identity_inverse_ok": result.identity_inverse_ok,
            "order_p_central_ok": result.pc_ok,
            "order_p_central_pairs": result.pc_pairs,
            "omega1_rank": result.omega1_rank,
            "abelianization_rank": result.abelianization_rank,
            "commutator_rank": result.commutator_rank,
            "exponent": result.exponent,
            "seed": result.seed,
        },
    }
    ok = result.associativity_ok and result.identity_inverse_ok and result.pc_ok
    return report, EXIT_OK if ok else EXIT_DISAGREE


def run_bockstein(args: argparse.Namespace) -> tuple[dict, int]:
    n, max_degree = args.n, args.max_degree
    if n > BOCKSTEIN_N_CAP:
        raise InvalidInput(
            f"n = {n}: the listing of 2n + C(n, 2) generator images grows with n^2;"
            f" bockstein is capped at n <= {BOCKSTEIN_N_CAP}"
        )
    p = as_prime(args.p)
    gens = bocksteindga.Generators(n, p)
    # The sweep refuses an over-budget input before any image is listed.
    try:
        result = bocksteindga.verify_differential(n, p, max_degree, leibniz_pairs=args.pairs, seed=args.seed)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc} (lower --max-degree)") from exc
    formulas = []
    for i in range(1, n + 1):
        formulas.append({"generator": f"x{i}", "image": str(bocksteindga.bockstein(gens.x(i)))})
    for i, j in gens.pairs:
        formulas.append(
            {"generator": f"x({i},{j})", "image": str(bocksteindga.bockstein(gens.x_pair(i, j)))}
        )
    for i in range(1, n + 1):
        formulas.append({"generator": f"z{i}", "image": str(bocksteindga.bockstein(gens.zeta(i)))})
    for i, j in gens.pairs:
        img = bocksteindga.bockstein(gens.zeta_pair(i, j))
        formulas.append(
            {
                "generator": f"z({i},{j})",
                "image": str(img),
                "restricted_image": str(bocksteindga.restrict_to_unp(img)),
            }
        )
    report = {
        "command": "bockstein",
        "n": n,
        "p": int(p),
        "max_degree": max_degree,
        "formulas": formulas,
        "sweep": {
            "monomials_checked": result.monomials_checked,
            "beta_squared_violations": result.beta_squared_violations,
            "leibniz_pairs": result.leibniz_pairs,
            "leibniz_violations": result.leibniz_violations,
            "seed": result.seed,
        },
    }
    ok = result.beta_squared_violations == 0 and result.leibniz_violations == 0
    return report, EXIT_OK if ok else EXIT_DISAGREE


def run_series(args: argparse.Namespace) -> tuple[dict, int]:
    numerator = _int_list(args.numerator, "numerator")
    w, r = args.w, args.r
    if w < 0 or r < 0:
        raise InvalidInput("w and r must be nonnegative")
    q = series.PoincarePolynomial(tuple(numerator))
    _check_truncation(args.truncate)
    truncate = _expansion_degree(args.truncate, w, r)
    report = {"command": "series", "w": w, "r": r, **_series_report(q, w, r, truncate)}
    return report, EXIT_OK


def run_crosscheck(args: argparse.Namespace) -> tuple[dict, int]:
    given = _int_list(args.primes, "primes")
    n_max = args.n_max
    if not 1 <= n_max <= 6:
        raise InvalidInput("n_max must be between 1 and 6 (the complex has 2^(n + C(n,2)) monomials)")
    primes = [as_prime(p) for p in given]
    if not primes:
        raise InvalidInput("need at least one prime")
    oracles = {n: younghook.unp_betti(n) for n in range(1, n_max + 1)}

    def cell(n, p):
        cx = koszul.unp_complex(n, p)
        dims = list(koszul.betti(cx, with_representatives=False).dims)
        agree = dims == list(oracles[n])
        return {
            "n": n,
            "p": int(p),
            "koszul": dims,
            "oracle": list(oracles[n]),
            "agree": agree,
            "within_guarantee": p > comb(n, 2) + 1,
        }

    rows = [cell(n, p) for n in range(1, n_max + 1) for p in primes]

    failures = [row for row in rows if row["within_guarantee"] and not row["agree"]]
    report = {
        "command": "crosscheck",
        "n_max": n_max,
        "primes": [int(p) for p in primes],
        "rows": rows,
        "all_agree_within_guarantee": not failures,
    }
    return report, EXIT_OK if not failures else EXIT_DISAGREE


# -- rendering ---------------------------------------------------------------


def _color_enabled() -> bool:
    return sys.stdout.isatty() and "NO_COLOR" not in os.environ


def _verdict(text: str, enabled: bool) -> str:
    if not enabled:
        return text
    code = {"AGREE": "32", "DISAGREE": "31", "INFORMATIONAL": "33"}.get(text)
    return f"\x1b[{code}m{text}\x1b[0m" if code else text


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_series(block: dict, lines: list[str]) -> None:
    lines.append(f"numerator q(t) = {block['numerator_text']}")
    lines.append(f"series p(t) = {block['series_text']}")
    lines.append(
        f"expansion through degree {block['truncation_degree']}: "
        + " ".join(str(c) for c in block["expansion"])
    )
    chk = block["checks"]
    lines.append(
        "checks: palindrome {0}   q(-1)=0 {1}   degree=w+r {2}   recompose {3}".format(
            _yn(chk["palindrome"]), _yn(chk["euler_zero"]), _yn(chk["degree_match"]), _yn(block["recompose_ok"])
        )
    )


def _render_complex_body(report: dict, lines: list[str]) -> None:
    hyp = report["hypothesis"]
    lines.append(
        f"complex: w={report['w']} r={report['r']} p={report['p']} (top degree {report['top_degree']})"
    )
    if report["quadratics"]:
        lines.append("quadratics:")
        for idx, text in enumerate(report["quadratics"], 1):
            lines.append(f"  q{idx} = {text}")
    hyp_bits = [f"p > r+1: {_yn(hyp['p_gt_r_plus_1'])}"]
    if "bockstein_contained" in hyp:
        hyp_bits.insert(0, f"Bockstein block contained: {_yn(hyp['bockstein_contained'])}")
    hyp_bits.append(f"independent quadratics: {_yn(hyp['quadratics_independent'])}")
    lines.append("hypothesis: " + "   ".join(hyp_bits))
    lines.append("betti: " + " ".join(str(b) for b in report["betti"]))
    if "representatives" in report:
        for d, names in enumerate(report["representatives"]):
            if d == 0 or not names:
                continue
            lines.append(f"degree {d} (dim {report['betti'][d]}):")
            for name in names:
                lines.append(f"  [{name}]")
        if report.get("representatives_truncated"):
            lines.append("(representative lists truncated; use --full for all)")
    _render_series(report["poincare"], lines)
    for note in report["warnings"]:
        lines.append(f"warning: {note}")


def _render_text(report: dict) -> str:
    color = _color_enabled()
    lines: list[str] = []
    cmd = report["command"]
    if cmd in ("koszul", "unp"):
        if cmd == "unp":
            lines.append(f"universal complex on n={report['n']} generators, p={report['p']}")
        _render_complex_body(report, lines)
        if cmd == "unp":
            lines.append("oracle: " + " ".join(str(b) for b in report["oracle"]["betti"]))
            lines.append(
                "closed forms (degrees 0..3): "
                + " ".join(str(c) for c in report["oracle"]["closed_forms_0_to_3"])
            )
            lines.append("degree   koszul   oracle   agree")
            for row in report["per_degree"]:
                lines.append(
                    f"{row['degree']:>6}   {row['koszul']:>6}   {row['oracle']:>6}   {_yn(row['agree'])}"
                )
            lines.append(f"verdict: {_verdict(report['verdict'], color)}")
    elif cmd == "group":
        v = report["verification"]
        lines.append(f"group {report['group']} with n={report['n']}, p={report['p']}")
        lines.append(f"order: {report['order']}")
        lines.append(f"verification mode: {v['mode']} (seed {v['seed']})")
        assoc = "all triples" if v["associativity_exhaustive"] else "sampled triples"
        lines.append(
            f"associativity: {_yn(v['associativity_ok'])} ({assoc}: {v['associativity_triples']})"
        )
        lines.append(f"identity and inverses: {_yn(v['identity_inverse_ok'])}")
        lines.append(
            f"order-p elements central: {_yn(v['order_p_central_ok'])} (pairs checked: {v['order_p_central_pairs']})"
        )
        lines.append(f"omega_1 rank: {v['omega1_rank']}")
        lines.append(f"abelianization rank: {v['abelianization_rank']}")
        lines.append(f"commutator subgroup rank: {v['commutator_rank']}")
        lines.append(f"exponent: {v['exponent']}")
    elif cmd == "bockstein":
        lines.append(f"Bockstein differential for n={report['n']}, p={report['p']}")
        lines.append("generator images:")
        for f in report["formulas"]:
            lines.append(f"  beta({f['generator']}) = {f['image']}")
            if "restricted_image" in f:
                lines.append(f"    after restriction: {f['restricted_image']}")
        sweep = report["sweep"]
        lines.append(
            f"beta^2 = 0 on {sweep['monomials_checked']} monomials of degree <= {report['max_degree']}: "
            f"{sweep['beta_squared_violations']} violations"
        )
        lines.append(
            f"Leibniz rule on {sweep['leibniz_pairs']} random homogeneous pairs (seed {sweep['seed']}): "
            f"{sweep['leibniz_violations']} violations"
        )
    elif cmd == "series":
        _render_series(report, lines)
    elif cmd == "crosscheck":
        lines.append(f"crosscheck: n = 1..{report['n_max']}, primes {report['primes']}")
        lines.append("   n       p   agree   within guarantee   betti")
        for row in report["rows"]:
            verdict = "AGREE" if row["agree"] else "DISAGREE"
            lines.append(
                f"{row['n']:>4}{row['p']:>8}   {_verdict(verdict, color):<5}   {_yn(row['within_guarantee']):<16}   "
                + " ".join(str(b) for b in row["koszul"])
            )
        overall = "AGREE" if report["all_agree_within_guarantee"] else "DISAGREE"
        lines.append(f"overall (within guarantee): {_verdict(overall, color)}")
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n" if fmt == "json" else _render_text(report)


# -- argument parsing --------------------------------------------------------


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse {what} {text!r}: expected comma-separated integers") from exc


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input (exit 3); exit 2 means "not contained"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frattini",
        description="Homology, series, oracle, group, and Bockstein computations for"
        " central extensions with elementary abelian quotient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, seed=True, truncate=False):
        sp.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="seed for any randomized checks")
        if truncate:
            sp.add_argument(
                "--truncate", type=int, default=None, help="series truncation degree (default: 2(w+r))"
            )

    sp = sub.add_parser("koszul", help="homology of a complex from quadratics or an input file")
    sp.add_argument("input", nargs="?", help="JSON input file with fields p, w, and quadratics or k_basis")
    sp.add_argument("-w", type=int, default=None, help="number of degree-1 generators (inline mode)")
    sp.add_argument("-p", type=int, default=None, help="odd prime (inline mode)")
    sp.add_argument(
        "-q",
        "--quadratic",
        action="append",
        default=None,
        metavar="EXPR",
        help="quadratic form, e.g. 'e1^e2 + 2 e2^e3' (repeatable)",
    )
    sp.add_argument("--force", action="store_true", help="compute even with dependent quadratics")
    sp.add_argument("--max-reps", type=int, default=10, help="representatives shown per degree")
    sp.add_argument("--full", action="store_true", help="show every representative")
    common(sp, truncate=True)

    sp = sub.add_parser("unp", help="universal complex on n generators vs the partition oracle")
    sp.add_argument("-n", type=int, required=True, help="number of generators")
    sp.add_argument("-p", type=int, default=None, help="odd prime (default: least odd prime > C(n,2)+1)")
    common(sp, truncate=True)

    sp = sub.add_parser("group", help="construct the group and verify its axioms")
    sp.add_argument("-n", type=int, required=True, help="number of generators")
    sp.add_argument("-p", type=int, required=True, help="odd prime")
    sp.add_argument(
        "--group", choices=("u", "g"), default="u", help="u: the universal quotient; g: the free construction"
    )
    sp.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    sp.add_argument("--budget", type=int, default=pgroups.DEFAULT_BUDGET, help="enumeration budget")
    sp.add_argument("--triples", type=int, default=pgroups.DEFAULT_TRIPLES, help="sampled triple count")
    common(sp)

    sp = sub.add_parser("bockstein", help="differential formulas plus the verification sweep")
    sp.add_argument("-n", type=int, required=True, help="number of generators")
    sp.add_argument("-p", type=int, required=True, help="prime > 3")
    sp.add_argument("--max-degree", type=int, default=6, help="exhaustive sweep bound")
    sp.add_argument("--pairs", type=int, default=100, help="random Leibniz pairs")
    common(sp)

    sp = sub.add_parser("series", help="expand q(t)/(1-t^2)^(w+r) and check the numerator")
    sp.add_argument("--numerator", required=True, help="comma-separated coefficients, lowest degree first")
    sp.add_argument("-w", type=int, required=True, help="number of degree-1 generators")
    sp.add_argument("-r", type=int, required=True, help="number of quadratics")
    common(sp, seed=False, truncate=True)

    sp = sub.add_parser("crosscheck", help="Koszul-vs-oracle agreement over a range of n and p")
    sp.add_argument("--n-max", type=int, default=3, help="largest n (1..6)")
    sp.add_argument("--primes", default="7,11,101", help="comma-separated odd primes")
    common(sp, seed=False)

    return parser


_RUNNERS = {
    "koszul": run_koszul,
    "unp": run_unp,
    "group": run_group,
    "bockstein": run_bockstein,
    "series": run_series,
    "crosscheck": run_crosscheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = _RUNNERS[args.command](args)
        text = _render(report, args.format)
    except koszul.BocksteinNotContained as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONTAINED
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'allocation failed'}); try a smaller input", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        print(f"error: internal error ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

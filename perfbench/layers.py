"""Which frattini calls are traced, and the per-layer metrics built from them.

Each layer is a public call of one module.  Construction of ``ExtElement``
and ``Monomial`` is deliberately not traced: it runs millions of times per job
and a wrapper there would measure itself.

Import this module only after ``source.use_checkout_source()``.
"""

from __future__ import annotations

import numpy as np

from frattini import bocksteindga, cli, extalg, fplin, koszul, pgroups, series, younghook

from tracer import Tracer
from workloads import cli_call

# Per layer: the summed quantities reported for it, with units.
LAYER_METRICS = {
    "koszul.differential_matrix": {"s": "s", "calls": "count", "cells": "count", "nnz": "count",
                                   "bytes": "B_computed"},
    "fplin.rank": {"s": "s", "calls": "count", "cells": "count"},
    "koszul.canonicalize": {"s": "s"},
    "koszul.betti": {"self_s": "s"},
    "fplin.kernel_basis": {"s": "s", "calls": "count", "vectors": "count"},
    "fplin.quotient_representatives": {"s": "s", "calls": "count", "cycles_in": "count", "reps_out": "count"},
    "fplin.solve": {"s": "s", "calls": "count", "cells": "count"},
    "koszul.cup": {"s": "s", "calls": "count"},
    "extalg.format": {"s": "s", "calls": "count"},
    "extalg.wedge": {"s": "s", "calls": "count"},
    "series": {"s": "s"},
    "younghook.unp_betti": {"s": "s"},
    "pgroups.build": {"s": "s"},
    "pgroups.verify": {"s": "s", "triples": "count", "pc_pairs": "count"},
    "bocksteindga.bockstein": {"s": "s", "calls": "count"},
    "bocksteindga.mul": {"s": "s", "calls": "count"},
    "bocksteindga.verify_differential": {"self_s": "s", "monomials": "count", "leibniz_pairs": "count"},
    "cli.main": {"self_s": "s"},
    "cli.run": {"self_s": "s"},
}

# Ratios: metric name -> (layer, numerator, denominator, unit); 0 when the layer never ran.
RATIO_METRICS = {
    "fplin.quotient_representatives.useful_ratio": ("fplin.quotient_representatives", "reps_out", "cycles_in", "1"),
    "koszul.cup.nonzero_ratio": ("koszul.cup", "nonzero", "calls", "1"),
    "pgroups.verify.triples_per_s": ("pgroups.verify", "triples", "s", "1/s"),
}


def _matrix_counts(args, m) -> dict:
    cells = m.rows * m.cols
    return {"cells": cells, "nnz": int(np.count_nonzero(m.entries)), "bytes": 8 * cells}


def _argument_cells(args, result) -> dict:
    return {"cells": args[0].rows * args[0].cols}


def install(tracer: Tracer) -> None:
    """Wrap every traced call; ``tracer.uninstall()`` undoes it."""
    tracer.link_thread_pools()
    tracer.wrap(koszul, "differential_matrix", "koszul.differential_matrix", _matrix_counts)
    tracer.wrap(koszul, "canonicalize", "koszul.canonicalize")
    tracer.wrap(koszul, "betti", "koszul.betti")
    tracer.wrap(koszul, "cup", "koszul.cup", lambda args, c: {"nonzero": int(not c.is_zero())})
    tracer.wrap(fplin, "rank", "fplin.rank", _argument_cells)
    tracer.wrap(fplin, "kernel_basis", "fplin.kernel_basis", lambda args, vs: {"vectors": len(vs)})
    tracer.wrap(fplin, "quotient_representatives", "fplin.quotient_representatives",
                lambda args, reps: {"cycles_in": len(args[0]), "reps_out": len(reps)})
    tracer.wrap(fplin, "solve", "fplin.solve", _argument_cells)
    tracer.wrap(extalg.ExtElement, "__str__", "extalg.format")
    # ExtElement.__mul__ reaches wedge through the module, so scalar multiples are not counted.
    tracer.wrap(extalg, "wedge", "extalg.wedge")
    for name in ("from_betti", "expand", "checks", "verify_expansion"):
        tracer.wrap(series, name, "series")
    tracer.wrap(younghook, "unp_betti", "younghook.unp_betti")
    tracer.wrap(pgroups, "unp_group", "pgroups.build")
    tracer.wrap(pgroups.PGroup, "__init__", "pgroups.build")
    tracer.wrap(pgroups.PGroup, "verify", "pgroups.verify",
                lambda args, r: {"triples": r.associativity_triples, "pc_pairs": r.pc_pairs})
    tracer.wrap(bocksteindga, "bockstein", "bocksteindga.bockstein")
    tracer.wrap(bocksteindga.BigradedElement, "__mul__", "bocksteindga.mul")
    tracer.wrap(bocksteindga, "verify_differential", "bocksteindga.verify_differential",
                lambda args, r: {"monomials": r.monomials_checked, "leibniz_pairs": r.leibniz_pairs})
    tracer.wrap(cli, "main", "cli.main")
    for command in list(cli._RUNNERS):  # main() dispatches through this table
        tracer.wrap(cli._RUNNERS, command, "cli.run")


def metric_units() -> dict[str, str]:
    """Name -> unit of every metric ``metrics`` returns."""
    units = {f"{layer}.{key}": unit for layer, keys in LAYER_METRICS.items() for key, unit in keys.items()}
    units.update({name: spec[3] for name, spec in RATIO_METRICS.items()})
    return units


def metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from ``tracer.summarize``."""
    out = {}
    for layer, keys in LAYER_METRICS.items():
        for key in keys:
            out[f"{layer}.{key}"] = summary.get(layer, {}).get(key, 0.0)
    for name, (layer, num, den, _) in RATIO_METRICS.items():
        agg = summary.get(layer, {})
        out[name] = agg.get(num, 0.0) / agg[den] if agg.get(den) else 0.0
    return out


def self_check() -> list[str]:
    """Run small calls of every traced layer unwrapped, wrapped and unwrapped
    again; name any output that differs and any layer that recorded no span."""
    tracer = Tracer()
    plain = _sample_outputs()
    install(tracer)
    try:
        traced = _sample_outputs()
    finally:
        tracer.uninstall()
    recorded = len(tracer.spans)
    after = _sample_outputs()
    problems = [f"{key}: traced output differs" for key in plain if traced[key] != plain[key]]
    problems += [f"{key}: output differs after uninstall" for key in plain if after[key] != plain[key]]
    missing = set(LAYER_METRICS) - {span.name for span in tracer.spans}
    problems += [f"{layer}: no span recorded" for layer in sorted(missing)]
    if len(tracer.spans) != recorded:
        problems.append("spans recorded after uninstall")
    return problems


def _sample_outputs() -> dict[str, object]:
    amb = extalg.Ambient(4, 0, 7)
    quads = [extalg.parse(text, amb) for text in ("e1^e2 + 2 e3^e4", "e1^e3 + e2^e4", "3 e1^e4")]
    cx = koszul.KoszulComplex(4, 7, quads)
    table = koszul.betti(cx, workers=2)
    ones = table.classes(1)
    m = koszul.differential_matrix(cx, 2)
    kernel = fplin.kernel_basis(m)
    boundaries = list(koszul.differential_matrix(cx, 1).entries.T)
    return {
        "betti": (table.dims, [[str(r) for r in reps] for reps in table.representatives]),
        "cup": [str(koszul.cup(a, b)) for a in ones for b in ones],
        "matrix": m.entries.tolist(),
        "rank": fplin.rank(m),
        "kernel": [v.tolist() for v in kernel],
        "quotient": [v.tolist() for v in fplin.quotient_representatives(kernel, boundaries, 7)],
        "solve": fplin.solve(m, m.entries[:, 0]).tolist(),
        "canonicalize": str(koszul.unp_complex(3, 7).quadratics),
        "cli unp": cli_call(["unp", "-n", "3", "--format", "json"])(),
        "cli koszul": cli_call(["koszul", "-w", "3", "-p", "5", "-q", "e1^e2", "-q", "e2^e3"])(),
        "cli group": cli_call(["group", "-n", "1", "-p", "3", "--format", "json"])(),
        "cli bockstein": cli_call(["bockstein", "-n", "2", "-p", "5", "--max-degree", "3", "--format", "json"])(),
    }

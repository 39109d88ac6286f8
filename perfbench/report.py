"""Print every metric of every workload, with its unit.

    python3 perfbench/report.py

For each workload of BENCHMARK.json it runs ``run.py`` twice, each in a fresh
process, on seed 0 (whose koszul-reps outputs are frozen) and for the
benchmark's ``run_seconds``: with ``--trace 0`` for the end-to-end metrics and
with ``--trace 1`` for the per-layer metrics.  ``fail_ratio`` (failed jobs /
attempted jobs) is printed alongside.  It exits 1 if any output check failed or if a run reports other
metrics than BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0  # the seed whose koszul-reps outputs are frozen in workloads.py


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: run.py exited {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            if sorted(metrics) != sorted(declared[trace]):
                print(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
                ok = False
            ok = ok and result["correct"]
            print(f"== {workload} (seed {SEED}, trace {trace}, correct {result['correct']})")
            rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
            rows.append(("fail_ratio", result["failed"] / result["attempted"], "1"))
            for name, value, unit in rows:
                print(f"  {name:<48} {value:>18.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

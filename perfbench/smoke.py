"""Fast self-test of the benchmark on tiny grids (about a minute).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--smoke`` untraced and
traced, and checks that the result line has the contract's keys and every
declared metric, that every job passed, that the traced layers cover at
least 90% of the traced wall, and that a checkout without the library
fails with a non-zero exit and no result line. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(done: subprocess.CompletedProcess, declared: list) -> list:
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"jobs failed: {done.stderr.strip()[-500:]}")
    names = [m["name"] for m in declared]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"metrics {sorted(set(names) ^ set(result['metrics']))} missing or extra")
    coverage = result["metrics"].get("trace.layer_coverage_frac")
    if coverage is not None and coverage["value"] < 0.9:
        problems.append(f"layer spans cover {coverage['value']:.3f} < 0.9 of the traced wall")
    return problems


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for p in check_result(bench(workload, trace, ROOT), declared[kind]):
                problems.append(f"{workload} trace={trace}: {p}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("sweep-small", 0, bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("a checkout without src/ did not fail cleanly")
    shutil.rmtree(bare)

    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

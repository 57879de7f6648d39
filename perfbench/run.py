"""calderon_lab benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload <ladder-3d|sweep-small|study-miller>
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a source checkout; the library is imported from its
``src`` directory. The run makes as many passes over the workload's job
list as fit into ``--seconds`` on the reference machine (at least one, and
at least two when traced) and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics, measured with tracing off;
- ``--trace 1``: the per-layer metrics. Untraced and traced passes
  alternate, so the tracing overhead is the ratio of their walls.

The line before it is the environment record. Spans, the environment and
every per-pass number go to ``.perfbench_out/<workload>-s<seed>-t<trace>/``.
BLAS is pinned to one thread before numpy loads; the gap-study pool uses
min(2, nproc) threads.
"""

from __future__ import annotations

import os

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")
MODULES = ("analytic", "calculus", "grid_geometry", "dn_solver", "conformal", "gauge",
           "counterexample", "cli", "report")
# Layer counts that must repeat exactly for one seed, within a run and
# across runs. Everything a job observes must repeat as well.
DETERMINISTIC = (".nnz", ".interior_dofs", ".rhs_cols", ".calls", ".nodes")
SETUP_PROBES = 2


class NotDeterministic(Exception):
    pass


def load(workload: str, seed: int, smoke: bool):
    """Import the library and build the workload's jobs: the timed set-up."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    modules = {m: importlib.import_module(f"calderon_lab.{m}") for m in MODULES}
    pkg = sys.modules["calderon_lab"]
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "calderon_lab":
        raise SystemExit(f"calderon_lab imported from {pkg.__file__}, not from this checkout")
    import workloads

    out = str(OUT / run_tag(workload, seed, smoke))
    sizes = workloads.SMOKE if smoke else workloads.FULL
    jobs = workloads.WORKLOADS[workload](seed, sizes, out, pool_threads())
    return modules, jobs, workloads.PASS_SECONDS[workload]


def run_tag(workload: str, seed: int, smoke: bool) -> str:
    return f"{workload}-s{seed}" + ("-smoke" if smoke else "")


def pool_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def probe_setup(args) -> float:
    """Time the set-up in a fresh interpreter, where imports are not cached."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pin": {v: os.environ[v] for v in BLAS_PINS},
        "gap_study_pool_threads": pool_threads(),
        "machine": platform.machine(),
    }


def run_pass(jobs, lab, index: int) -> dict:
    """One pass over the job list; failures are counted by type, never retried."""
    import workloads

    tracer = lab.tracer
    tracer.reset()
    observed: dict = {}
    failures = []
    t0 = time.perf_counter()
    for job in jobs:
        tracer.job = job.id
        try:
            with tracer.span(f"job.{job.kind}"):
                result = job.run(lab)
        except (workloads.CheckFailed, *tracer.failure_types) as exc:
            failures.append({"job": job.id, "type": type(exc).__name__, "detail": str(exc)})
            continue
        for key, value in result.items():
            observed[key] = observed.get(key, 0) + value if isinstance(value, (int, float)) else value
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "traced": tracer.on, "jobs": len(jobs), "observed": observed,
           "failures": failures}
    if tracer.on:
        out["layers"] = {**tracer.counts, **tracer.layer_summary(wall)}
        out["spans"] = tracer.dump(index)
    return out


def run_passes(jobs, lab, count: int, traced: bool) -> list:
    """``count`` passes; a traced run alternates untraced and traced ones."""
    passes = []
    for index in range(max(count, 2 if traced else 1)):
        lab.tracer.on = traced and index % 2 == 1
        passes.append(run_pass(jobs, lab, index))
    lab.tracer.on = False
    return passes


def deterministic_view(p: dict) -> dict:
    counts = {k: v for k, v in p.get("layers", {}).items() if k.endswith(DETERMINISTIC)}
    return {**p["observed"], **counts}


def check_deterministic(passes: list, state_path: Path) -> None:
    """Counts and digests repeat across the passes of this run and across
    earlier runs of the same seed on the same code."""
    views = [deterministic_view(p) for p in passes]
    untraced = [v for v, p in zip(views, passes) if not p["traced"]]
    traced = [v for v, p in zip(views, passes) if p["traced"]]
    for group in (untraced, traced):
        for v in group[1:]:
            if v != group[0]:
                raise NotDeterministic(f"counts differ between passes: {group[0]} vs {v}")
    # tracing must not change what the jobs observe
    if traced and any(traced[0].get(k) != v for k, v in untraced[0].items()):
        raise NotDeterministic("traced and untraced passes observe different results")
    record = traced[0] if traced else untraced[0]
    if state_path.exists():
        earlier = json.loads(state_path.read_text())
        common = set(earlier) & set(record)
        diff = {k: (earlier[k], record[k]) for k in common if earlier[k] != record[k]}
        if diff:
            raise NotDeterministic(f"counts differ from an earlier run of this seed: {diff}")
        record = {**earlier, **record}
    state_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, state_path)


def code_digest() -> str:
    h = hashlib.sha256()
    sources = [*(ROOT / "src" / "calderon_lab").glob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(sources):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(passes, setup_s: float) -> dict:
    walls = [p["wall_s"] for p in passes]
    attempted, failed = attempted_failed(passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
        # 1.0 (no digit right) when the oracle job failed in every pass
        "flat_oracle_err": (max(p["observed"].get("flat_oracle_err", 0.0) for p in passes) or 1.0,
                            "rel"),
    }


def per_layer(passes, declared: list) -> dict:
    """Median over the traced passes of each declared layer metric; a layer
    the workload never calls reads 0."""
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    rows = [
        {**p["observed"], **p["layers"], "trace.wall_s": traced_wall,
         "trace.untraced_wall_s": untraced_wall, "trace.overhead_ratio": traced_wall / untraced_wall}
        for p in passes if p["traced"]
    ]
    return {
        m["name"]: (statistics.median(r.get(m["name"], 0) for r in rows), m["unit"]) for m in declared
    }


def attempted_failed(passes) -> tuple:
    return sum(p["jobs"] for p in passes), sum(len(p["failures"]) for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ladder-3d", "sweep-small", "study-miller"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, for the self-test")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    t0 = time.perf_counter()
    modules, jobs, pass_seconds = load(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - t0
    if args.probe_setup:
        print(setup_s)
        return 0
    if not args.trace:
        setup_s = statistics.median([setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)])

    from calderon_lab.errors import CalderonLabError
    from tracing import Lab, Tracer

    lab = Lab(modules, Tracer((CalderonLabError,)))
    passes = run_passes(jobs, lab, int(args.seconds // pass_seconds), traced=bool(args.trace))

    tag = run_tag(args.workload, args.seed, args.smoke)
    run_dir = OUT / f"{tag}-t{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    check_deterministic(passes, OUT / "state" / code_digest() / f"{tag}.json")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = per_layer(passes, declared["per_layer"])
        spans = [s for p in passes if p["traced"] for s in p.pop("spans")]
        (run_dir / "spans.json").write_text(json.dumps(spans))
    else:
        metrics = end_to_end(passes, setup_s)
    attempted, failed = attempted_failed(passes)
    env = environment()
    failures = [f for p in passes for f in p["failures"]]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "env": env, "setup_s": setup_s, "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "failures": failures,
    }
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    for f in failures:
        print(f"job {f['job']} failed: {f['type']}: {f['detail']}", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except NotDeterministic as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(3)

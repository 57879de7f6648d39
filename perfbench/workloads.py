"""The benchmark's three workloads, each a list of checked jobs built from
a workload seed.

A job runs against a ``Lab`` (see tracing.py) and returns a dict of
observations: deterministic counts and digests that must repeat exactly
across passes, plus the flat-oracle error where the job computes it. A
job whose result misses the tolerance of the acceptance criterion it
mirrors raises ``CheckFailed``; a ``CalderonLabError`` from the library
propagates. Both count as a failed job.

Why these three (see README.md for the numbers):

- ladder-3d: few large interior blocks with 13 right-hand sides each, so
  the sparse factorisation inside dn_mode_matrix blocks the result.
- sweep-small: many small systems on grids that repeat, so assembly and
  per-call overhead dominate and a factorisation change barely shows.
- study-miller: the CLI pipeline plus one dense DN map with 576
  right-hand sides, so the solver is used with many columns, next to
  LSQR, a thread pool and report writes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
from calderon_lab.grid_geometry import GAMMA1

FLAT_MODES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))


class CheckFailed(Exception):
    """A job's result missed its acceptance-criterion tolerance."""


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    run: Callable  # (lab) -> dict of observations


@dataclass(frozen=True)
class Sizes:
    """Grid sizes of every workload; ``SMOKE`` shrinks them for the
    self-test, ``FULL`` is what the benchmark measures."""

    ladder: tuple
    diffeo: tuple
    identity_diffeo: int
    conformal_2d: tuple
    rigidity_3d: int
    rigidity_4d: int
    algebraic_identity: int
    sweep_flat: tuple
    sweep_repeats: int
    miller_grid: tuple
    miller_flat: tuple


FULL = Sizes(
    ladder=(17, 25, 33),
    diffeo=(9, 13),
    identity_diffeo=9,
    conformal_2d=(9, 17, 33),
    rigidity_3d=13,
    rigidity_4d=7,
    algebraic_identity=9,
    sweep_flat=(9, 13),
    sweep_repeats=4,
    miller_grid=(25, 24, 24),
    miller_flat=(13, 25),
)

SMOKE = Sizes(
    ladder=(9, 13, 17),
    diffeo=(9, 13),
    identity_diffeo=7,
    conformal_2d=(9, 17, 33),
    rigidity_3d=5,
    rigidity_4d=5,
    algebraic_identity=5,
    sweep_flat=(9, 13),
    sweep_repeats=1,
    miller_grid=(21, 20, 20),
    miller_flat=(9, 13),
)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _lsq_order(sizes, gaps) -> float:
    """Least-squares slope of log gap against log h, h = 1/(size-1)."""
    g = np.asarray(gaps, dtype=float)
    if (g <= 0.0).any():
        return np.inf  # at the rounding floor already
    h = 1.0 / (np.asarray(sizes, dtype=float) - 1.0)
    return float(np.polyfit(np.log(h), np.log(g), 1)[0])


def _mode_gap(lab, sys_a, sys_b) -> float:
    B_a, _ = lab.dn_solver.dn_mode_matrix(sys_a, GAMMA1, 2.0)
    B_b, _ = lab.dn_solver.dn_mode_matrix(sys_b, GAMMA1, 2.0)
    return lab.dn_solver.mode_gap(B_a, B_b)


# -- jobs --------------------------------------------------------------------


def flat_oracle(lab, sizes) -> dict:
    """Criterion 5: flat-cylinder DN mode eigenvalues against |m| coth |m|;
    the constant mode is exact (<= 1e-10), the others converge at order
    >= 1.8. Reports the largest relative error at the finest size."""
    gg, dn = lab.grid_geometry, lab.dn_solver
    exact = np.array([np.hypot(*m) / np.tanh(np.hypot(*m)) if any(m) else 1.0 for m in FLAT_MODES])
    errs = []
    for size in sizes:
        g = gg.sample_metric(gg.flat_metric(3), gg.cyl_grid(3, size))
        vals = dn.dn_mode_eigenvalues(dn.assemble_stiffness(g), GAMMA1, list(FLAT_MODES))
        errs.append(np.abs(vals - exact))
    errs = np.array(errs)
    _check(errs[:, 0].max() <= 1e-10, f"constant flat mode defect {errs[:, 0].max():.3e} > 1e-10")
    order = min(_lsq_order(sizes, errs[:, j]) for j in range(1, len(FLAT_MODES)))
    _check(order >= 1.8, f"flat eigenvalue order {order:.3f} < 1.8")
    return {"flat_oracle_err": float((errs[-1] / exact).max())}


def _collar_factor(lab, grid, seed: int):
    """c = 1 + 0.3 bump(t) trig(angles): 1 with zero normal derivative on
    collars at both ends, as in criterion 3."""
    an = lab.analytic
    prof = an.bump(0.15, 0.85, 3, 0)
    ang = an.trig_sum(3, np.random.default_rng(seed), terms=2, amplitude=0.5, max_mode=1, offset=1.0)
    src = an.constant(1.0, 3) + prof * ang * an.constant(0.3, 3)
    with lab.span("conformal.ConformalFactor.from_source"):
        return lab.conformal.ConformalFactor.from_source(grid, src, 3)


def link_ladder(lab, sizes, metric_seed: int, factor_seed: int) -> dict:
    """Criterion 3: DN link between c^4 g and -Lap_g + q, low-mode gap
    order >= 1.5 over the ladder."""
    gg, dn, cf = lab.grid_geometry, lab.dn_solver, lab.conformal
    src = gg.random_trig_metric(3, seed=metric_seed, max_mode=1)
    gaps = []
    for size in sizes:
        grid = gg.cyl_grid(3, size)
        g = gg.sample_metric(src, grid)
        c = _collar_factor(lab, grid, factor_seed)
        q = cf.conformal_potential(g, c, one_sided=True)
        gaps.append(_mode_gap(
            lab,
            dn.assemble_stiffness(cf.scale_metric(g, c)),
            dn.assemble_stiffness(g, potential=q, potential_id="link"),
        ))
    order = _lsq_order(sizes, gaps)
    _check(order >= 1.5, f"link gap order {order:.3f} < 1.5")
    return {}


def _pullback_sample(lab, src, phi, grid):
    """Sample phi^* src; evaluating the pulled-back closed form is its own
    span, a child of sample_metric."""
    pulled = lab.gauge.pullback_metric(src, phi)
    if lab.tracer.on:
        pulled = replace(pulled, func=lab.tracer.wrap("gauge.pullback_sample", pulled.func))
    return lab.grid_geometry.sample_metric(pulled, grid)


def diffeo_pair(lab, sizes, metric_seed: int, reparam: float, shear: float) -> dict:
    """Criterion 4, 3-D diffeomorphism part: gap order >= 1.5."""
    gg, dn, ga = lab.grid_geometry, lab.dn_solver, lab.gauge
    src = gg.random_trig_metric(3, seed=metric_seed, max_mode=1)
    phi = ga.bump_reparam(3, reparam).compose(ga.bump_shear(3, 1, shear))
    gaps = []
    for size in sizes:
        grid = gg.cyl_grid(3, size)
        gaps.append(_mode_gap(
            lab,
            dn.assemble_stiffness(gg.sample_metric(src, grid)),
            dn.assemble_stiffness(_pullback_sample(lab, src, phi, grid)),
        ))
    order = _lsq_order(sizes, gaps)
    _check(order >= 1.5, f"diffeo gap order {order:.3f} < 1.5")
    return {}


def identity_diffeo_pair(lab, size: int, metric_seed: int) -> dict:
    """Criterion 4, identity case: gap <= 1e-10."""
    gg, dn = lab.grid_geometry, lab.dn_solver
    src = gg.random_trig_metric(3, seed=metric_seed, max_mode=1)
    grid = gg.cyl_grid(3, size)
    gap = _mode_gap(
        lab,
        dn.assemble_stiffness(gg.sample_metric(src, grid)),
        dn.assemble_stiffness(_pullback_sample(lab, src, lab.gauge.identity_diffeo(3), grid)),
    )
    _check(gap <= 1e-10, f"identity diffeo gap {gap:.3e} > 1e-10")
    return {}


def conformal_2d_pair(lab, sizes, metric_seed: int, factor_seed: int) -> dict:
    """Criterion 4, 2-D conformal part: gap order >= 1.5."""
    gg, dn, an = lab.grid_geometry, lab.dn_solver, lab.analytic
    src = gg.random_trig_metric(2, seed=metric_seed, max_mode=1)
    gaps = []
    for size in sizes:
        grid = gg.cyl_grid(2, size)
        g = gg.sample_metric(src, grid)
        csrc = an.constant(1.0, 2) + an.trig_sum(
            2, np.random.default_rng(factor_seed), terms=2, amplitude=0.2, max_mode=1
        )
        with lab.span("conformal.ConformalFactor.from_source"):
            c = lab.conformal.ConformalFactor.from_source(grid, csrc, 2)
        gaps.append(_mode_gap(
            lab, dn.assemble_stiffness(lab.conformal.scale_metric_2d(g, c)), dn.assemble_stiffness(g)
        ))
    order = _lsq_order(sizes, gaps)
    _check(order >= 1.5, f"2-D conformal gap order {order:.3f} < 1.5")
    return {}


def rigidity(lab, n: int, size: int, metric_seed: int) -> dict:
    """Criterion 8: full-boundary rigidity, max |c - 1| <= 1e-10."""
    gg = lab.grid_geometry
    g = gg.sample_metric(gg.random_trig_metric(n, seed=metric_seed), gg.cyl_grid(n, size))
    dev = lab.conformal.global_rigidity_check(g)
    _check(dev <= 1e-10, f"rigidity deviation {dev:.3e} > 1e-10")
    return {}


def identity_tuple(lab, size: int, seed: int) -> dict:
    """Criterion 1: pointwise energy identity <= 1e-12."""
    gg, an = lab.grid_geometry, lab.analytic
    rng = np.random.default_rng(seed)
    grid = gg.cyl_grid(3, size)
    g = gg.sample_metric(gg.random_trig_metric(3, seed=seed), grid)
    with lab.span("conformal.ConformalFactor.from_source"):
        c = lab.conformal.ConformalFactor.from_source(
            grid, an.constant(1.0, 3) + an.trig_sum(3, rng, terms=2, amplitude=0.1), 3
        )
    with lab.span("calculus.ScalarField.from_source"):
        u = lab.calculus.ScalarField.from_source(grid, an.trig_sum(3, rng, terms=2, amplitude=1.0))
        w = lab.calculus.ScalarField.from_source(grid, an.trig_sum(3, rng, terms=2, amplitude=1.0))
    err = lab.conformal.algebraic_identity_check(g, c, u, w)
    _check(err <= 1e-12, f"identity defect {err:.3e} > 1e-12")
    return {}


def _emit(lab, report, out_dir: str, command: str) -> dict:
    """Write one report. The bytes of its canonical artifacts (report.json
    and the CSV tables) and the report.json digest must repeat; summary.md
    and timings.json carry wall times and may not."""
    written = lab.report.emit_report(report, out_dir)
    with open(written["report.json"], "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    canonical = [p for name, p in written.items() if name not in ("summary.md", "timings.json")]
    size = sum(os.path.getsize(p) for p in canonical)
    _check(report.passed, f"{command} verdicts failed")
    return {"report.emit_report.bytes": size, f"report.json.sha256.{command}": digest}


def miller_synth(lab, out: str, grid: tuple, modes, amplitude: float) -> dict:
    cfg = {
        "grid": {"num_t": grid[0], "num_ang": list(grid[1:])},
        "modes": [list(m) for m in modes],
        "amplitude": amplitude,
        "output": "dataset.json",
    }
    report = lab.cli.run("synth-dataset", cfg, out, 1)
    obs = _emit(lab, report, out, "synth-dataset")
    obs["counterexample.lsqr_iterations"] = report.scalars["synth"]["lsqr_iterations"]
    return obs


def miller_validate(lab, out: str) -> dict:
    dest = os.path.join(out, "validate")
    report = lab.cli.run("validate-dataset", {"dataset": os.path.join(out, "dataset.json")}, dest, 1)
    return _emit(lab, report, dest, "validate-dataset")


def miller_study(lab, out: str, threads: int) -> dict:
    """Criteria 6 and 7 through the CLI: eps = 0 gaps <= 1e-10, positive
    fit coefficients, R^2 >= 0.9, volume obstruction matched to 1e-10."""
    dest = os.path.join(out, "study")
    cfg = {"dataset": os.path.join(out, "dataset.json")}
    report = lab.cli.run("counterexample-study", cfg, dest, threads)
    obs = _emit(lab, report, dest, "counterexample-study")
    obs["counterexample.gap_cells"] = len(report.tables["gap_study"].rows)
    return obs


def miller_dense_map(lab, out: str) -> dict:
    """The dense DN map of the synthesised metric, projected on the low
    modes, agrees with dn_mode_matrix to 1e-10."""
    gg, dn = lab.grid_geometry, lab.dn_solver
    data = lab.counterexample.load_dataset(os.path.join(out, "dataset.json"))
    sys = dn.assemble_stiffness(gg.assemble_counterexample_metric_3d(data))
    dense = dn.dn_map_partial(sys, GAMMA1)
    V, _ = dn.fourier_modes(sys.grid, 2.0)
    B, _ = dn.dn_mode_matrix(sys, GAMMA1, 2.0)
    gap = dn.mode_gap(V.T @ dense.matrix @ V, B)
    _check(gap <= 1e-10, f"dense map projection gap {gap:.3e} > 1e-10")
    return {}


# -- workloads ---------------------------------------------------------------


def _seeds(rng, k: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def ladder_3d(seed: int, sizes: Sizes, out: str, threads: int) -> list:
    rng = np.random.default_rng([seed, 1])
    metric_seed, factor_seed = _seeds(rng, 2)
    return [
        Job("link-ladder", "link-ladder", partial(link_ladder, sizes=sizes.ladder,
                                                  metric_seed=metric_seed, factor_seed=factor_seed)),
        Job("flat-oracle", "flat-oracle", partial(flat_oracle, sizes=sizes.ladder)),
    ]


def sweep_small(seed: int, sizes: Sizes, out: str, threads: int) -> list:
    """The same mix of job kinds for every seed, so the work per pass does
    not depend on the seed; only the metrics and factors do."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for k in range(sizes.sweep_repeats):
        s = _seeds(rng, 7)
        jobs += [
            Job(f"diffeo-{k}", "diffeo-pair", partial(
                diffeo_pair, sizes=sizes.diffeo, metric_seed=s[0],
                reparam=float(rng.uniform(0.06, 0.1)), shear=float(rng.uniform(0.12, 0.2)))),
            Job(f"identity-diffeo-{k}", "identity-diffeo",
                partial(identity_diffeo_pair, size=sizes.identity_diffeo, metric_seed=s[1])),
            Job(f"conformal-2d-{k}", "conformal-2d", partial(
                conformal_2d_pair, sizes=sizes.conformal_2d, metric_seed=s[2], factor_seed=s[3])),
            Job(f"rigidity-3d-{k}", "rigidity-3d",
                partial(rigidity, n=3, size=sizes.rigidity_3d, metric_seed=s[4])),
            Job(f"rigidity-4d-{k}", "rigidity-4d",
                partial(rigidity, n=4, size=sizes.rigidity_4d, metric_seed=s[5])),
            Job(f"identity-{k}", "identity-tuple",
                partial(identity_tuple, size=sizes.algebraic_identity, seed=s[6])),
        ]
    jobs.append(Job("flat-oracle", "flat-oracle", partial(flat_oracle, sizes=sizes.sweep_flat)))
    return jobs


MILLER_MODES = (((1, 0), (0, 1)), ((1, 1), (1, 0)))


def study_miller(seed: int, sizes: Sizes, out: str, threads: int) -> list:
    rng = np.random.default_rng([seed, 3])
    amplitude = float(rng.uniform(0.08, 0.12))
    modes = MILLER_MODES[int(rng.integers(len(MILLER_MODES)))]
    return [
        Job("synth", "cli.synth-dataset", partial(
            miller_synth, out=out, grid=sizes.miller_grid, modes=modes, amplitude=amplitude)),
        Job("validate", "cli.validate-dataset", partial(miller_validate, out=out)),
        Job("study", "cli.counterexample-study", partial(miller_study, out=out, threads=threads)),
        Job("dense-map", "dense-map", partial(miller_dense_map, out=out)),
        Job("flat-oracle", "flat-oracle", partial(flat_oracle, sizes=sizes.miller_flat)),
    ]


WORKLOADS = {"ladder-3d": ladder_3d, "sweep-small": sweep_small, "study-miller": study_miller}

# Seconds one pass takes on the reference machine (2-vCPU Xeon VM, see
# README.md). A run makes ``--seconds // PASS_SECONDS`` passes, so every
# run of a workload does the same work however fast the machine is that
# day; a pass count chosen from the clock flips between 1 and 2 on
# study-miller and makes its median bimodal.
PASS_SECONDS = {"ladder-3d": 25.0, "sweep-small": 3.4, "study-miller": 19.0}

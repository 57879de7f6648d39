"""Config-driven experiment runner.

    calderon-lab <subcommand> --config <path> [--out <dir>] [--threads N]

Subcommands: verify-identities, dn-compare, counterexample-study,
validate-dataset, synth-dataset, rigidity-check. Each reads a JSON config,
runs the corresponding library routines, writes a deterministic report
(JSON + CSV + markdown) and exits 0 when every configured verdict passes,
1 on computational failure, 2 on config errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import analytic as an
from .calculus import ScalarField
from .conformal import (
    ConformalFactor,
    algebraic_identity_check,
    conformal_potential,
    global_rigidity_check,
    scale_metric,
    scale_metric_2d,
    scaling_law_residual,
)
from .counterexample import (
    dn_gap_study,
    load_dataset,
    nonisometry_check,
    save_dataset,
    synth_approx_miller,
    validate_miller_properties,
)
from .dn_solver import assemble_stiffness, dn_mode_matrix, fourier_modes, mode_gap
from .errors import (
    CalderonLabError,
    ConfigInvalid,
    DimensionTooSmall,
    GridMismatch,
    InfeasibleBounds,
    NonOrientationPreserving,
    ShapeMismatch,
    TrivialU,
)
from .gauge import bump_reparam, bump_shear, cubic_reparam, identity_diffeo, pullback_metric
from .grid_geometry import (
    BOUNDARY_NAMES,
    CylinderGrid,
    MillerDataset,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)
from .report import ExperimentReport, emit_report

__all__ = ["main", "run"]


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are config errors."""
    x = float(text)
    if not np.isfinite(x):
        raise ConfigInvalid(f"config holds the non-finite number {text}")
    return x


def _load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f, parse_float=_finite, parse_constant=_finite)
    except OSError as e:
        raise ConfigInvalid(f"cannot read config file {path!r}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ConfigInvalid(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigInvalid(f"config lacks required key {key!r}")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigInvalid(f"config key {key!r} has wrong type {type(val).__name__}")
    return val


def _cast(key: str, convert, value):
    """``convert(value)``; a value it rejects is a config error."""
    try:
        return convert(value)
    except (TypeError, ValueError) as e:
        raise ConfigInvalid(f"config key {key!r} has invalid value {value!r}") from e


def _num(cfg: dict, key: str, default, kind=int):
    return _cast(key, kind, cfg.get(key, default))


def _nums(cfg: dict, key: str, default, kind=int) -> list:
    """A non-empty list of numbers: an empty one would yield no evidence."""
    vals = _cast(key, lambda v: [kind(x) for x in v], cfg.get(key, default))
    if not vals:
        raise ConfigInvalid(f"config key {key!r} is empty")
    return vals


def _seed(cfg: dict) -> int:
    """The ``seed`` key; numpy rejects negative seeds."""
    seed = _num(cfg, "seed", 0)
    if seed < 0:
        raise ConfigInvalid(f"seed must be non-negative, got {seed}")
    return seed


def _grid(build, *args) -> CylinderGrid:
    """``build(*args)`` for a grid builder or a coarsening; an invalid size,
    dimension or stride in the config is a config error."""
    try:
        return build(*args)
    except (ValueError, DimensionTooSmall, GridMismatch) as e:
        raise ConfigInvalid(f"invalid grid: {e}") from e


def _modes_fit(grid: CylinderGrid, cut: float) -> None:
    """A mode cut that aliases on ``grid`` is a config error."""
    try:
        fourier_modes(grid, cut)
    except ShapeMismatch as e:
        raise ConfigInvalid(f"cut {cut} is too high for grid {grid.shape}: {e}") from e


def _gamma(cfg: dict, key: str = "gamma", default: str = "gamma1") -> str:
    g = cfg.get(key, default)
    if g not in BOUNDARY_NAMES:
        raise ConfigInvalid(f"{key} must be one of {BOUNDARY_NAMES}, got {g!r}")
    return g


def _metric_source(spec, n: int):
    if spec is None or spec == "flat" or (isinstance(spec, dict) and spec.get("kind") == "flat"):
        return flat_metric(n)
    if isinstance(spec, dict) and spec.get("kind") == "random-trig":
        return random_trig_metric(
            n,
            seed=_seed(spec),
            amplitude=_num(spec, "amplitude", 0.4 / n, float),
            max_mode=_num(spec, "max_mode", 1),
        )
    raise ConfigInvalid(f"unknown metric spec {spec!r}")


def _random_factor_source(spec, n: int):
    if spec is None or spec == "one":
        return an.constant(1.0, n)
    if isinstance(spec, dict):
        rng = np.random.default_rng(_seed(spec))
        amplitude = _num(spec, "amplitude", 0.25, float)
        offset = _num(spec, "offset", 1.3, float)
        # the waves sum to at most |amplitude|, so this keeps the factor positive
        if offset <= abs(amplitude):
            raise ConfigInvalid(f"factor offset {offset} must exceed |amplitude| {abs(amplitude)}")
        return an.trig_sum(
            n, rng, terms=_num(spec, "terms", 2), amplitude=amplitude, offset=offset,
            max_mode=_num(spec, "max_mode", 1),
        )
    raise ConfigInvalid(f"unknown conformal factor spec {spec!r}")


def _diffeo(spec, n: int):
    if spec is None or spec == "identity":
        return identity_diffeo(n)
    if not isinstance(spec, dict):
        raise ConfigInvalid(f"unknown diffeo spec {spec!r}")
    delta = _num(spec, "delta", 0.1, float)
    family = spec.get("family", "bump")
    amp = _num(spec, "amplitude", 0.08, float)
    # folding maps, shear axes outside 1..n-1 and empty collars are config errors
    try:
        if family == "bump":
            phi = bump_reparam(n, amp, delta)
        elif family == "cubic":
            phi = cubic_reparam(n, amp, delta)
        elif family == "identity":
            phi = identity_diffeo(n, delta)
        else:
            raise ConfigInvalid(f"unknown diffeo family {family!r}")
        if spec.get("shear"):
            shear = _require(spec, "shear", dict)
            phi = phi.compose(
                bump_shear(n, _num(shear, "axis", 1), _num(shear, "amplitude", 0.1, float), delta)
            )
    except (ValueError, NonOrientationPreserving) as e:
        raise ConfigInvalid(f"invalid diffeo: {e}") from e
    return phi


def _order_fit(sizes, gaps):
    """Least-squares slope of log gap against log h, h = 1/(size-1)."""
    g = np.asarray(gaps, dtype=float)
    if (g <= 0).any():
        return float("inf")  # at roundoff floor; decrease is vacuous
    h = 1.0 / (np.asarray(sizes, dtype=float) - 1.0)
    A = np.column_stack([np.log(h), np.ones_like(h)])
    slope, _ = np.linalg.lstsq(A, np.log(g), rcond=None)[0]
    return float(slope)


# -- subcommand handlers -----------------------------------------------------


def _run_verify_identities(cfg: dict, threads: int) -> ExperimentReport:
    n = _num(cfg, "n", 3)
    size = _num(cfg, "size", 9)
    tuples = _num(cfg, "tuples", 20)
    if tuples < 1:
        raise ConfigInvalid(f"tuples must be at least 1, got {tuples}")
    seed = _seed(cfg)
    tol_id = _num(cfg, "identity_tol", 1e-12, float)
    tol_triv = _num(cfg, "trivial_tol", 1e-10, float)
    rep = ExperimentReport("verify-identities", cfg)
    grid = _grid(cyl_grid, n, size)
    rows = []
    worst = 0.0
    for k in range(tuples):
        rng = np.random.default_rng(seed + k)
        g = sample_metric(random_trig_metric(n, seed=seed + k), grid)
        c = ConformalFactor.from_source(
            grid, an.trig_sum(n, rng, terms=2, amplitude=0.3, offset=1.4), n
        )
        u = ScalarField.from_source(grid, an.trig_sum(n, rng, terms=2, amplitude=1.0))
        w = ScalarField.from_source(grid, an.trig_sum(n, rng, terms=2, amplitude=1.0))
        err = algebraic_identity_check(g, c, u, w)
        rows.append((k, err))
        worst = max(worst, err)
    rep.add_table("identity_errors", ("tuple", "max_error"), rows)
    rep.add_verdict("algebraic_identity_max", worst, tol_id)

    g = sample_metric(random_trig_metric(n, seed=seed), grid)
    c1 = ConformalFactor.one(grid, n)
    f = ScalarField.from_source(grid, an.trig_sum(n, np.random.default_rng(seed), terms=2, amplitude=1.0))
    rep.add_verdict("scaling_law_trivial_factor", scaling_law_residual(g, c1, f), tol_triv)
    return rep


def _gap_pair(sys_a, sys_b, gamma: str, cut: float) -> float:
    B_a, _ = dn_mode_matrix(sys_a, gamma, cut)
    B_b, _ = dn_mode_matrix(sys_b, gamma, cut)
    return mode_gap(B_a, B_b)


def _run_dn_compare(cfg: dict, threads: int) -> ExperimentReport:
    gl = _gamma(cfg, "gamma_left")
    gr = _gamma(cfg, "gamma_right")
    if gl != gr:
        raise ConfigInvalid(
            f"the two DN maps must be restricted to the same boundary part, got {gl!r} vs {gr!r}"
        )
    n = _num(cfg, "n", 3)
    sizes = _nums(cfg, "sizes", (9, 17, 33))
    cut = _num(cfg, "cut", 2.0, float)
    order_min = _num(cfg, "order_min", 1.5, float)
    ident_tol = _num(cfg, "identity_tol", 1e-10, float)
    transform = cfg.get("transform")
    if not isinstance(transform, dict) or "kind" not in transform:
        raise ConfigInvalid("dn-compare needs a transform spec with a 'kind'")
    kind = transform["kind"]
    grids = [_grid(cyl_grid, n, size) for size in sizes]
    src = _metric_source(cfg.get("metric"), n)
    # every grid-independent part of the transform is built here, so a bad
    # spec fails before the first grid is sampled
    identity_like = False
    if kind == "conformal-2d":
        if n != 2:
            raise ConfigInvalid("conformal-2d requires n = 2")
        c_src = _random_factor_source(transform.get("factor"), n)
        identity_like = transform.get("factor") in (None, "one")
    elif kind == "conformal-link":
        if n < 3:
            raise ConfigInvalid("conformal-link requires n >= 3")
        c_src = _collar_flat_source(transform, n)
    elif kind == "diffeo":
        spec = transform.get("diffeo", transform)
        src_t = pullback_metric(src, _diffeo(spec, n))
        identity_like = spec == "identity" or (isinstance(spec, dict) and spec.get("family") == "identity")
    else:
        raise ConfigInvalid(f"unknown transform kind {kind!r}")
    if not identity_like and len(set(sizes)) < 2:
        raise ConfigInvalid(f"fitting gap_order needs two distinct sizes, got {sizes}")
    for grid in grids:
        _modes_fit(grid, cut)

    rep = ExperimentReport("dn-compare", cfg)
    gaps = []
    for grid in grids:
        g = sample_metric(src, grid)
        sys_g = assemble_stiffness(g)
        if kind == "conformal-2d":
            c = ConformalFactor.from_source(grid, c_src, n)
            sys_t = assemble_stiffness(scale_metric_2d(g, c))
        elif kind == "conformal-link":
            c = ConformalFactor.from_source(grid, c_src, n)
            # the factor is constant near both ends, so the one-sided fill
            # of the potential there is exact
            q = conformal_potential(g, c, one_sided=True)
            sys_t = assemble_stiffness(g, potential=q)
            sys_g = assemble_stiffness(scale_metric(g, c))
        else:
            sys_t = assemble_stiffness(sample_metric(src_t, grid))
        gaps.append(_gap_pair(sys_g, sys_t, gl, cut))
    rep.add_table("gaps", ("size", "gap"), list(zip(sizes, gaps)))
    rep.scalars["gaps"] = gaps
    if identity_like:
        rep.add_verdict("gap_at_floor", max(gaps), ident_tol)
    else:
        rep.add_verdict("gap_order", _order_fit(sizes, gaps), order_min, ">=")
    return rep


def _collar_flat_source(transform: dict, n: int) -> an.AnalyticScalar:
    """c = 1 + amplitude * bump(t) * trig(angles): equals 1 with zero normal
    derivative on collars at both ends, so the potential-link comparison
    sees matching Dirichlet and Neumann traces."""
    amp = _num(transform, "amplitude", 0.3, float)
    lo = _num(transform, "collar", 0.15, float)
    prof = an.bump(lo, 1.0 - lo, n, 0)
    rng = np.random.default_rng(_seed(transform))
    ang = an.trig_sum(n, rng, terms=2, amplitude=0.5, max_mode=1, offset=1.0)
    return an.constant(1.0, n) + prof * ang * an.constant(amp, n)


def _synth(spec: dict, check=None):
    """Run :func:`synth_approx_miller` with only the keys a synth block sets,
    so the library defaults hold; returns (dataset, build report).
    ``check(grid)`` vets the grid first; a box or ridge the synthesis
    rejects is a config error."""
    gspec = _require(spec, "grid", dict)
    for key in ("num_t", "num_ang"):
        _require(gspec, key)
    grid = _grid(CylinderGrid, 3, _num(gspec, "num_t", None), _nums(gspec, "num_ang", None))
    if check is not None:
        check(grid)
    casts = {"T": float, "amplitude": float, "ridge": float, "alpha": float, "rho": float,
             "modes": lambda v: tuple((int(x), int(y)) for x, y in v)}
    kwargs = {key: _cast(key, kind, spec[key]) for key, kind in casts.items() if key in spec}
    try:
        return synth_approx_miller(grid, **kwargs)
    except InfeasibleBounds as e:
        raise ConfigInvalid(f"invalid synth block: {e}") from e


def _dataset_file(cfg: dict) -> tuple[str, MillerDataset]:
    """The config's ``dataset`` path and the container it names, which must
    be a regular file; a malformed container is a computation failure."""
    path = _require(cfg, "dataset", str)
    if not os.path.isfile(path):
        raise ConfigInvalid(f"dataset {path!r} is not a file")
    return path, load_dataset(path, validate=False)


def _dataset_from_config(cfg: dict, check):
    """The dataset a config names or synthesises, with its origin;
    ``check(grid)`` vets the dataset grid before any synthesis."""
    if "dataset" in cfg:
        path, data = _dataset_file(cfg)
        check(data.grid)
        return data, {"dataset": path}
    if "synth" in cfg:
        data, synth_rep = _synth(_require(cfg, "synth", dict), check)
        return data, {"synth": synth_rep}
    raise ConfigInvalid("config needs either a 'dataset' path or a 'synth' block")


def _run_counterexample_study(cfg: dict, threads: int) -> ExperimentReport:
    eps = _nums(cfg, "eps", (0.0, 0.025, 0.05, 0.1), float)
    strides = tuple(_nums(cfg, "strides", (4, 2, 1)))
    if min(strides) < 1:
        raise ConfigInvalid(f"strides must be at least 1, got {list(strides)}")
    gamma = _gamma(cfg)
    cut = _num(cfg, "cut", 2.0, float)
    zero_tol = _num(cfg, "zero_tol", 1e-10, float)
    r2_min = _num(cfg, "r2_min", 0.9, float)
    iso_eps = _num(cfg, "nonisometry_eps", 0.05, float)
    iso_tol = _num(cfg, "nonisometry_tol", 1e-10, float)

    def check(grid: CylinderGrid) -> None:
        # a stride must divide the dataset grid, and the modes fit the coarsest
        for s in strides:
            _modes_fit(_grid(grid.coarsen, s), cut)

    data, origin = _dataset_from_config(cfg, check)
    rep = ExperimentReport("counterexample-study", cfg)
    rep.scalars.update(origin)

    res = dn_gap_study(data, eps, strides=strides, gamma=gamma, cut=cut, threads=threads)
    rep.add_table(
        "gap_study",
        ("eps", "stride", "gap", "harmonic_residual", "weak_residual"),
        [(c.eps, c.stride, c.gap, c.harmonic_residual, c.weak_residual) for c in res.cells],
    )
    rep.scalars["fit"] = res.fit
    zero_gaps = [c.gap for c in res.cells if c.eps == 0.0]
    if zero_gaps:
        rep.add_verdict("zero_eps_gap", max(zero_gaps), zero_tol)
    if not res.fit.get("trivial"):
        rep.add_verdict("fit_beta_eps_r", res.fit["beta_eps_r"], 0.0, ">=")
        rep.add_verdict("fit_beta_eps2", res.fit["beta_eps2"], 0.0, ">=")
        rep.add_verdict("fit_r2", res.fit["r2"], r2_min, ">=")
        try:
            iso = nonisometry_check(data, iso_eps)
            rep.scalars["nonisometry"] = iso
            rep.add_verdict("nonisometry_p2_match", iso["rel_diff"], iso_tol)
            rep.add_verdict("nonisometry_p2_positive", iso["p2"], 0.0, ">=")
        except TrivialU:
            rep.scalars["nonisometry"] = "trivial u, no obstruction derivable"
    return rep


def _run_validate_dataset(cfg: dict, threads: int) -> ExperimentReport:
    _, data = _dataset_file(cfg)
    rep = ExperimentReport("validate-dataset", cfg)
    result = validate_miller_properties(data)
    rep.scalars["validation"] = result.as_dict()
    rep.add_table(
        "items",
        ("item", "status", "code"),
        [(i.name, i.status, i.code or "") for i in result.items],
    )
    rep.add_verdict("validation_failures", sum(i.status == "fail" for i in result.items), 0.0)
    return rep


def _run_synth_dataset(cfg: dict, threads: int, out_dir) -> ExperimentReport:
    output = cfg.get("output", "dataset.json")
    if not isinstance(output, str) or os.path.basename(output) != output or output in ("", ".", ".."):
        raise ConfigInvalid(f"output must be a bare file name, got {output!r}")
    rep = ExperimentReport("synth-dataset", cfg)
    data, synth_rep = _synth(cfg)
    save_dataset(data, os.path.join(out_dir, output))
    rep.scalars["synth"] = synth_rep
    rep.scalars["output"] = output
    rep.add_verdict("residual_not_worse_than_baseline",
                    synth_rep["achieved_l2"] - synth_rep["baseline_l2"], 0.0)
    return rep


def _run_rigidity_check(cfg: dict, threads: int) -> ExperimentReport:
    n = _num(cfg, "n", 3)
    size = _num(cfg, "size", 9)
    seeds = _nums(cfg, "seeds", range(5))
    if min(seeds) < 0:
        raise ConfigInvalid(f"seeds must be non-negative, got {seeds}")
    tol = _num(cfg, "tolerance", 1e-10, float)
    rep = ExperimentReport("rigidity-check", cfg)
    grid = _grid(cyl_grid, n, size)
    rows = []
    worst = 0.0
    for s in seeds:
        g = sample_metric(random_trig_metric(n, seed=s), grid)
        dev = global_rigidity_check(g)
        rows.append((s, dev))
        worst = max(worst, dev)
    rep.add_table("deviation_from_one", ("seed", "max_deviation"), rows)
    rep.add_verdict("rigidity_max_deviation", worst, tol)
    return rep


_HANDLERS = {
    "verify-identities": _run_verify_identities,
    "dn-compare": _run_dn_compare,
    "counterexample-study": _run_counterexample_study,
    "validate-dataset": _run_validate_dataset,
    "synth-dataset": _run_synth_dataset,
    "rigidity-check": _run_rigidity_check,
}


def run(command: str, cfg: dict, out_dir, threads: int = 1) -> ExperimentReport:
    """Dispatch one subcommand on an already-parsed config; its wall time
    goes to ``timings["total"]``."""
    if command not in _HANDLERS:
        raise ConfigInvalid(f"unknown command {command!r}")
    handler = _HANDLERS[command]
    t0 = time.perf_counter()
    if command == "synth-dataset":
        os.makedirs(out_dir, exist_ok=True)
        rep = handler(cfg, threads, out_dir)
    else:
        rep = handler(cfg, threads)
    rep.timings["total"] = time.perf_counter() - t0
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="calderon-lab",
        description="DN-map laboratory for cylinder metrics: identity checks, "
        "gauge comparisons, and coefficient-dataset studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        threads = max(1, args.threads)
        out_dir = args.out or cfg.get("out") or os.path.join("reports", args.command)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except (TypeError, OSError) as e:
            raise ConfigInvalid(f"cannot create output directory {out_dir!r}: {e}") from e
        report = run(args.command, cfg, out_dir, threads)
        emit_report(report, out_dir)
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CalderonLabError as e:
        print(f"computation failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    for v in report.verdicts:
        state = "pass" if v.passed else "FAIL"
        print(f"[{state}] {v.name}: {v.value:.6e} {v.comparison} {v.threshold:.6e}")
    print(f"report written to {out_dir}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

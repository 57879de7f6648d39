"""Coefficient datasets with rough t-only parts: serialization, property
validation, synthesis of approximate datasets, and the DN-gap and
non-isometry studies built on them.

A dataset carries the smooth fields a1, a2, a3, the t-only rough parts
A1, A3, and a candidate solution u of the divergence-form equation

    d_t^2 u + d_x((1+a1+A1) d_x u + a2 d_y u)
            + d_y(a2 d_x u + (1+a3+A3) d_y u) = 0.

Everything downstream treats the dataset as measured input: validation is
empirical and report-based, and the synthesizer is an explicit best-effort
least-squares stand-in whose residual is part of its output, not a claim
of exactness. Smooth-in-t coefficient fields cannot drive the residual to
zero for a u with vanishing Cauchy data at t = 1; the synthesizer exists
to quantify that shortfall, and the studies regress the DN gap against it.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .calculus import ScalarField, divergence_form_apply, divergence_form_jacobian, integrate_volume
from .calculus import laplace_beltrami_pointwise
from .conformal import conformal_family, scale_metric, volume_expansion, weak_condition_residual
from .dn_solver import assemble_stiffness, check_modes, dn_mode_matrix, l2_norm, mode_gap
from .errors import (
    ConfigInvalid,
    GridMismatch,
    InfeasibleBounds,
    InsufficientSamples,
    MalformedContainer,
    NoConvergence,
    TrivialU,
)
from .grid_geometry import (
    GAMMA1,
    CylinderGrid,
    MillerDataset,
    assemble_counterexample_metric_3d,
)
from .report import (
    REQUIRED,
    choice,
    integer,
    list_of,
    load_json,
    ranged,
    read,
    real,
    string,
)

_FORMAT = "miller-dataset"
_ARRAY_NAMES = ("a1", "a2", "a3", "A1", "A3", "u")
VANISH_TOL = 1e-12
TRIVIAL_TOL = 1e-14


# -- container serialization -------------------------------------------------


def _encode_array(arr: np.ndarray) -> dict:
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {
        "encoding": "base64",
        "shape": list(arr.shape),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def dataset_json(data: MillerDataset) -> str:
    """The dataset as a single JSON container: the format marker, version
    1, the metadata and one entry per array. Arrays are base64 raw
    little-endian float64, which round-trips bit-exactly and is the one
    encoding :func:`load_dataset` reads.
    """
    doc = {
        "format": _FORMAT,
        "version": 1,
        "meta": {
            "n": data.grid.n,
            "N_t": data.grid.num_t,
            "N_ang": list(data.grid.num_ang),
            "T": data.T,
            "rho": data.rho,
            "alpha": data.alpha,
            "layout": "row-major",
            "dtype": "float64-le",
        },
        "arrays": {nm: _encode_array(getattr(data, nm)) for nm in _ARRAY_NAMES},
    }
    return json.dumps(doc)


def _meta(obj) -> SimpleNamespace:
    """The container's metadata with its grid built; the ranges of T, rho
    and alpha are the dataset's own to check."""
    m = read(obj, "container meta", n=(choice(3), REQUIRED), N_t=(integer, REQUIRED),
             N_ang=(list_of(integer), REQUIRED), T=(real, REQUIRED), rho=(real, REQUIRED),
             alpha=(real, REQUIRED), layout=(choice("row-major"), REQUIRED),
             dtype=(choice("float64-le"), REQUIRED))
    m.grid = CylinderGrid(3, m.N_t, m.N_ang)  # a GridMismatch is load_dataset's to report
    return m


def _array(name: str):
    """Converter of one array entry; bad base64 or a shape that does not
    fit the data is the reader's to report."""
    def convert(entry) -> np.ndarray:
        e = read(entry, f"array {name}", encoding=(choice("base64"), REQUIRED),
                 shape=(list_of(integer), REQUIRED), data=(string, REQUIRED))
        arr = np.frombuffer(base64.b64decode(e.data, validate=True), dtype="<f8").astype(float).reshape(e.shape)
        # a NaN passes or breaks validation depending on where it sits
        if not np.isfinite(arr).all():
            raise MalformedContainer(f"array {name} holds a non-finite value")
        return arr
    return convert


_ARRAYS = {nm: (_array(nm), REQUIRED) for nm in _ARRAY_NAMES}


def load_dataset(path) -> MillerDataset:
    """Parse a dataset container; a malformed file raises
    MalformedContainer. The file goes through the package's one JSON
    loader and schema reader (:mod:`~calderon_lab.report`) at three levels:
    the root (``format``, ``version`` 1, ``meta``, ``arrays``), the
    metadata, and each array entry (``encoding`` ``base64``, ``shape``,
    ``data``); an unknown key at any level is refused, and so is a
    non-finite array entry. The loaded dataset checks its own shapes and
    metadata ranges (:class:`MillerDataset`), and its refusal is a
    MalformedContainer too. Loading does not validate the dataset's
    properties: that is :func:`validate_miller_properties`."""
    try:
        doc = read(load_json(path), "container", format=(choice(_FORMAT), REQUIRED),
                   version=(ranged(integer, 1, 2), REQUIRED), meta=(_meta, REQUIRED),
                   arrays=(lambda v: read(v, "container arrays", **_ARRAYS), REQUIRED))
        m = doc.meta
        return MillerDataset(m.grid, *(getattr(doc.arrays, nm) for nm in _ARRAY_NAMES),
                             T=m.T, rho=m.rho, alpha=m.alpha)
    except (ConfigInvalid, InfeasibleBounds, GridMismatch) as e:
        raise MalformedContainer(str(e)) from e


# -- property validation -----------------------------------------------------


@dataclass(frozen=True)
class ValidationItem:
    name: str
    status: str  # pass | warn | fail
    code: str | None
    details: dict


@dataclass(frozen=True)
class ValidationReport:
    items: tuple

    @property
    def ok(self) -> bool:
        return all(i.status != "fail" for i in self.items)

    def as_dict(self) -> dict:
        return {"ok": self.ok, **asdict(self)}


def holder_quotients(t: np.ndarray, A: np.ndarray, rho: float) -> dict:
    """Empirical quotient max |A(t_i) - A(t_j)| / |t_i - t_j|^rho over
    end-anchored dyadic subsamples, keyed by stride.

    Subsampling anchors at the last sample, where the rough behaviour of
    the t-only coefficients concentrates. A bounded quotient across
    strides is consistent with (never a certificate of) Hoelder order rho.
    """
    t = np.asarray(t, dtype=float).ravel()
    A = np.asarray(A, dtype=float).ravel()
    if t.shape != A.shape or t.size < 2:
        raise InsufficientSamples("need matching t and A samples, at least two")
    strides = [1]
    while (t.size - 1) // (2 * strides[-1]) + 1 >= 5:
        strides.append(2 * strides[-1])
    out = {}
    for s in strides:
        idx = np.arange(t.size - 1, -1, -s)[::-1]
        ts, As = t[idx], A[idx]
        dt = np.abs(ts[:, None] - ts[None, :])
        dA = np.abs(As[:, None] - As[None, :])
        mask = dt > 0
        out[int(s)] = float((dA[mask] / dt[mask] ** rho).max()) if mask.any() else 0.0
    return out


def _growth(q: dict) -> float | None:
    """Finest-stride quotient over the coarsest: 1 when the finest is 0,
    None (unbounded, and no JSON number) when only the coarsest is."""
    finest, coarsest = q[1], q[max(q)]
    if finest == 0.0:
        return 1.0
    return None if coarsest == 0.0 else finest / coarsest


def _holder_item(name: str, t: np.ndarray, A: np.ndarray, rho: float) -> dict:
    q = holder_quotients(t, A, rho)
    q_prime = holder_quotients(t, A, (1.0 + rho) / 2.0)
    return {
        "series": name,
        "rho": rho,
        "quotients": {str(k): v for k, v in q.items()},
        "growth": _growth(q),
        "rho_prime": (1.0 + rho) / 2.0,
        "quotients_prime": {str(k): v for k, v in q_prime.items()},
        "growth_prime": _growth(q_prime),
    }


def validate_miller_properties(data: MillerDataset) -> ValidationReport:
    """Empirical checks of the declared dataset properties.

    Items: vanishing for t >= T; Hoelder-quotient stability of A1, A3 at
    the declared order (and growth at the midpoint order, report-only);
    coefficient-matrix eigenvalues within [alpha, 1/alpha]; divergence-form
    residual of u (report-only); nontriviality of u. All empirical: sampled
    data can be consistent with the properties, never certify them.
    """
    grid = data.grid
    t = grid.axes()[0]
    items = []

    late = t >= data.T - 1e-12
    # the t-mask indexes the first axis of the fields and the t-only series
    maxima = {nm: float(np.abs(getattr(data, nm)[late]).max()) for nm in _ARRAY_NAMES}
    worst = max(maxima.values())
    items.append(
        ValidationItem(
            "vanishing",
            "pass" if worst <= VANISH_TOL else "fail",
            None if worst <= VANISH_TOL else "VanishingViolated",
            {"T": data.T, "layers": int(late.sum()), "max_abs": maxima},
        )
    )

    holder = [_holder_item("A1", t, data.A1, data.rho), _holder_item("A3", t, data.A3, data.rho)]
    worst_growth = max(np.inf if h["growth"] is None else h["growth"] for h in holder)
    if worst_growth <= 4.0:
        status, code = "pass", None
    elif worst_growth <= 32.0:
        status, code = "warn", "HolderMarginal"
    else:
        status, code = "fail", "HolderUnstable"
    items.append(
        ValidationItem(
            "holder_quotient",
            status,
            code,
            {"series": holder, "note": "consistency check, not a certification"},
        )
    )

    ev = np.linalg.eigvalsh(data.coefficient_matrix())
    lo, hi = float(ev.min()), float(ev.max())
    ok = lo >= data.alpha - 1e-9 and hi <= 1.0 / data.alpha + 1e-9
    items.append(
        ValidationItem(
            "eigenvalue_bounds",
            "pass" if ok else "fail",
            None if ok else "EigenvalueBoundsViolated",
            {"alpha": data.alpha, "min": lo, "max": hi},
        )
    )

    R = divergence_form_apply(data.coefficient_matrix(), data.u, grid)
    w = grid.quad_weights[1:-1]
    items.append(
        ValidationItem(
            "harmonic_residual",
            "pass",
            None,
            {"max": float(np.abs(R).max()), "l2": float(np.sqrt(np.sum(w * R * R)))},
        )
    )

    umax = float(np.abs(data.u).max())
    items.append(
        ValidationItem(
            "nontriviality",
            "warn" if umax <= TRIVIAL_TOL else "pass",
            "TrivialU" if umax <= TRIVIAL_TOL else None,
            {
                "max_abs_u": umax,
                "note": "nonvanishing is certified at grid nodes only",
            },
        )
    )
    return ValidationReport(tuple(items))


# -- approximate dataset synthesis -------------------------------------------


def _coefficient_jacobian(u_vals: np.ndarray, grid: CylinderGrid, unknown: np.ndarray):
    """Sparse Jacobian of the interior divergence-form residual w.r.t. the
    stacked unknown fields (a1, a2, a3) at unknown nodes."""
    unk_flat = np.flatnonzero(unknown.ravel())
    # a1 sits in slot (1,1), a3 in (2,2); a2 fills both off-diagonal slots
    J = {slot: divergence_form_jacobian(u_vals, grid, *slot) for slot in ((1, 1), (1, 2), (2, 1), (2, 2))}
    blocks = (J[1, 1], J[1, 2] + J[2, 1], J[2, 2])
    return sp.hstack([B[:, unk_flat] for B in blocks], format="csr"), unk_flat


# the fit's ridge, relative to the mean squared column norm: the solve is
# exact at any ridge (normal residuals <= 7e-15 for 1e-1..1e-8 at grid
# (25,24,24)); 1e-2 keeps earlier datasets' fields to rounding, and below it
# the clipped fit is no better and more unknowns sit on the box (up to 82%
# at 1e-8)
_RIDGE = 1e-2


def synth_approx_miller(
    grid: CylinderGrid,
    T: float = 1.0,
    modes=((1, 0), (0, 1)),
    amplitude: float = 0.1,
    alpha: float = 0.5,
    rho: float = 1.0 / 6.0,
):
    """Best-effort dataset builder: u is fixed analytically and the smooth
    fields are fitted to minimise the divergence-form residual.

        u(t,x,y) = amplitude * exp(-1/(T-t)) * sum_m sin(m.(x,y))

    vanishes to all orders at t = T; the fields (a1, a2, a3) solve a
    ridge-damped (``_RIDGE``) linear least-squares problem on the interior
    nodes with t < T exactly, by one sparse LU per t-layer of its dual
    normal equations (report: ``normal_residual``, ``pivot_ratio``;
    ``lsqr_iterations`` stays 0 for its readers). They are then clipped to the box |a| <= (1-alpha)/2 (which keeps the
    coefficient matrix eigenvalues inside [alpha, 2-alpha], a subset of
    [alpha, 1/alpha]) and rescaled by the best step of a short backtracking
    scan so the result never beats the unclipped optimum but never loses
    to the zero-coefficient baseline. A1 = A3 = 0 throughout: the residual
    floor of smooth-in-t fields is exactly what the report quantifies.

    Returns (dataset, report dict). The zero dataset of ``grid`` and the
    metadata is built before any fitting, so a grid of other than 3 axes
    raises DimensionTooSmall and metadata out of :class:`MillerDataset`'s
    ranges InfeasibleBounds. The modes go through
    :func:`~calderon_lab.dn_solver.check_modes`, which raises ShapeMismatch
    for no modes, a mode of other than two components, or a component that
    is not a finite integer or that aliases (on 8 nodes mode (4, 0)
    samples to zero). InfeasibleBounds also refuses a ``T`` not above the
    first interior t-node (no unknowns), and a damping, baseline or fitted
    residual that is not finite (amplitude 1e160 overflows the Jacobian's
    squared column norms). NoConvergence if a t-layer's LU fails or the
    normal-equation residual exceeds 1e-10.
    """
    zero = MillerDataset.zero(grid, T=float(T), rho=float(rho), alpha=float(alpha))
    check_modes(grid, modes)
    t = grid.axes()[0]
    if not t[1] < T - 1e-12:
        raise InfeasibleBounds(f"T = {T} leaves no t-node to fit: the first interior node is t = {t[1]}")
    box = (1.0 - alpha) / 2.0

    x = grid.points
    waves = np.zeros(grid.shape)
    for m in modes:
        waves = waves + np.sin(x @ np.array([0.0, float(m[0]), float(m[1])]))
    profile, inside = np.zeros(grid.shape), x[..., 0] < T
    with np.errstate(under="ignore"):
        profile[inside] = np.exp(-1.0 / (T - x[..., 0][inside]))
    u = waves * profile * float(amplitude)

    unknown = np.zeros(grid.shape, dtype=bool)
    unknown[1:-1] = (t[1:-1] < T - 1e-12)[:, None, None]

    b = -divergence_form_apply(zero.coefficient_matrix(), u, grid).ravel()
    G, unk_flat = _coefficient_jacobian(u, grid, unknown)

    # an overflow gives inf or NaN, refused on the next line, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        baseline = l2_norm(b)
        colsq = np.asarray(G.multiply(G).sum(axis=0)).ravel()
        damp = float(np.sqrt(_RIDGE * colsq.mean()))
    if not np.isfinite([damp, baseline]).all():
        raise InfeasibleBounds(f"amplitude {amplitude} overflows the fit: damp {damp}, baseline {baseline}")
    # x = G^T (G G^T + d^2 I)^{-1} b. The coefficient matrix's t-row is fixed,
    # so a residual row couples only its own t-layer's unknowns: G G^T is
    # block diagonal by t-layer, and a layer with b = 0 has y = 0 (all do when
    # u = 0). G, b and d scaled by a power of two give x bit for bit, with
    # G G^T and the check clear of overflow and underflow.
    s = 2.0 ** -np.frexp(abs(G).max())[1]
    Gs, bs, d2, P = s * G, s * b, (s * damp) ** 2, grid.layer_count
    y, pivots = np.zeros_like(b), []
    for rows in (slice(lo, lo + P) for lo in range(0, b.size, P)):
        if bs[rows].any():
            try:
                lu = spla.splu((Gs[rows] @ Gs[rows].T + d2 * sp.identity(P)).tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise NoConvergence(np.inf, 1e-10) from exc
            y[rows] = lu.solve(bs[rows])
            pivots.append(np.abs(lu.U.diagonal()))
    x = Gs.T @ y
    normal, scale = l2_norm(Gs.T @ (bs - Gs @ x) - d2 * x), l2_norm(Gs.T @ bs)
    normal = normal / scale if scale else normal
    if not normal <= 1e-10:
        raise NoConvergence(normal, 1e-10)
    a_vec = np.clip(x, -box, box)
    taus = (1.0, 0.75, 0.5, 0.25, 0.0)
    residuals = [l2_norm(G @ (tau * a_vec) - b) for tau in taus]
    k = int(np.argmin(residuals))
    tau, achieved = taus[k], residuals[k]
    if not np.isfinite(achieved):
        raise InfeasibleBounds(f"amplitude {amplitude} overflows the fit: residual {achieved}")
    a_vec = tau * a_vec

    fields = np.zeros((3, grid.node_count))
    fields[:, unk_flat] = a_vec.reshape(3, -1)
    fields = fields.reshape((3, *grid.shape))
    data = replace(zero, a1=fields[0], a2=fields[1], a3=fields[2], u=u)
    report = {
        "baseline_l2": baseline,
        "achieved_l2": achieved,
        "reduction": 0.0 if baseline == 0.0 else 1.0 - achieved / baseline,
        "tau": tau,
        "box": box,
        "damp": damp,
        "normal_residual": normal,
        "pivot_ratio": float(min(map(np.min, pivots)) / max(map(np.max, pivots))) if pivots else 1.0,
        "lsqr_iterations": 0,
        "unknowns": a_vec.size,
        "rows": G.shape[0],
    }
    return data, report


# -- DN gap and non-isometry studies ----------------------------------------


@dataclass(frozen=True)
class StudyCell:
    eps: float
    stride: int
    gap: float
    harmonic_residual: float
    weak_residual: float


@dataclass(frozen=True)
class StudyResult:
    cells: tuple
    fit: dict


def _gap_fit(cells, trivial_u: bool) -> dict:
    """Least-squares fit gap ~ b1*(eps*r) + b2*eps^2 with uncentered R^2, trivial for a trivial u."""
    y = np.array([c.gap for c in cells])
    X = np.column_stack(
        [
            [c.eps * c.harmonic_residual for c in cells],
            [c.eps**2 for c in cells],
        ]
    )
    if trivial_u or not y.any():  # or every gap exactly 0, as for all-zero eps
        return {"beta_eps_r": 0.0, "beta_eps2": 0.0, "r2": 1.0, "trivial": True}
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    ss_res = float(np.sum((y - X @ beta) ** 2))
    ss_tot = float(np.sum(y * y))
    return {
        "beta_eps_r": float(beta[0]),
        "beta_eps2": float(beta[1]),
        "r2": 1.0 - ss_res / ss_tot,
        "trivial": False,
    }


def dn_gap_study(
    data: MillerDataset,
    eps_list,
    strides=(4, 2, 1),
    cut: float = 2.0,
) -> StudyResult:
    """DN gap on the measured end GAMMA1 between the dataset metric and its
    conformal rescalings over an (eps, refinement) table.

    Per stride the dataset is restricted to every stride-th node, the
    metric assembled, and for each eps the low-mode DN pairing matrices of
    g and c_eps^4 g compared. Each cell also records the dataset's metric
    harmonic residual r (volume L2 of the Laplacian of u) and the weak
    gauge-condition residual of c_eps. One stiffness system is alive at a
    time: g's goes once every weak residual is taken, and each scaled one
    dies with its mode-matrix call. The returned fit regresses
    gap ~ b1*(eps*r) + b2*eps^2 across all cells: when u is close to
    harmonic with flat traces, eps*r controls the first-order gap and the
    quadratic term absorbs the family's own nonlinearity. The fit is
    trivial, its gaps rounding, when max|u| <= ``TRIVIAL_TOL`` (as in :func:`nonisometry_check`).
    """
    cells = []
    for stride in strides:
        ds = data.coarsen(stride)
        g = assemble_counterexample_metric_3d(ds)
        sys_g = assemble_stiffness(g)
        B_g, _ = dn_mode_matrix(sys_g, GAMMA1, cut)
        u = ScalarField(ds.grid, ds.u)
        lap = laplace_beltrami_pointwise(g, u.values)
        wq = (g.grid.quad_weights * g.sqrt_det)[1:-1]
        r = float(np.sqrt(np.sum(wq * lap * lap)))
        factors = [conformal_family(u, eps) for eps in eps_list]
        weak = weak_condition_residual(sys_g, factors)
        del sys_g
        for eps, c, w in zip(eps_list, factors, weak):
            B_s, _ = dn_mode_matrix(assemble_stiffness(scale_metric(g, c)), GAMMA1, cut)
            cells.append(StudyCell(float(eps), int(stride), mode_gap(B_g, B_s), r, w))
    return StudyResult(tuple(cells), _gap_fit(cells, float(np.abs(data.u).max()) <= TRIVIAL_TOL))


# the widest volume sample moves c by this much where |u| peaks; the volume
# defect is a degree-6 polynomial in eps, which seven samples fit exactly, so
# its coefficients do not depend on the scale
_NONISOMETRY_EPS = 0.05


def nonisometry_check(data: MillerDataset) -> dict:
    """Volume obstruction to the rescaled family being isometric to g.

    Fits the volume defect polynomial of the family c_eps^4 g on the seven
    samples ``(_NONISOMETRY_EPS / max|u|) * (1, -1, 1/2, -1/2, 3/4, -3/4,
    1/4)``, so the widest moves c by +-0.05 where |u| peaks whatever u's
    amplitude, and compares its quadratic coefficient with the direct quadrature of
    15 * int u^2 dVol_g; a strictly positive value rules out
    volume-preserving identifications of the family with the base metric.
    """
    top = float(np.abs(data.u).max())
    if top <= TRIVIAL_TOL:
        raise TrivialU("u vanishes at every grid node; no obstruction derivable")
    g = assemble_counterexample_metric_3d(data)
    u = ScalarField(data.grid, data.u)
    samples = _NONISOMETRY_EPS / top * np.array([1.0, -1.0, 0.5, -0.5, 0.75, -0.75, 0.25])
    p = volume_expansion(g, u, samples)
    direct = 15.0 * integrate_volume(ScalarField(data.grid, data.u**2), g)
    rel = abs(p[2] - direct) / abs(direct)
    return {
        "p2": float(p[2]),
        "direct_quadrature": float(direct),
        "rel_diff": float(rel),
        "obstruction": bool(p[2] > 0.0),
        "coefficients": [float(x) for x in p],
        "eps_samples": [float(x) for x in samples],
    }

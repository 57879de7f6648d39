"""Closed-form scalar expressions with exact gradients.

Exact-identity checks need derivative-consistent data: a field, its
gradient, and every product/power built from them must come from the same
closed form. This module provides a tiny composable expression type that
carries a value callable and a gradient callable, plus the handful of
atoms the package actually uses (constants, trigonometric waves, smooth
cut-offs that vanish to all orders).

Points are passed as arrays of shape ``(..., dim)``; values come back with
shape ``(...,)`` and gradients with shape ``(..., dim)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatch, InfeasibleBounds

Array = np.ndarray


@dataclass(frozen=True)
class AnalyticScalar:
    """A scalar expression with an exact gradient.

    Parameters
    ----------
    dim : int
        Dimension of the point arrays the callables accept.
    val : callable
        Maps points ``(..., dim)`` to values ``(...,)``.
    grad : callable
        Maps points ``(..., dim)`` to gradients ``(..., dim)``.
    """

    dim: int
    val: Callable[[Array], Array]
    grad: Callable[[Array], Array]

    def value(self, points: Array) -> Array:
        pts = np.asarray(points, dtype=float)
        return np.asarray(self.val(pts), dtype=float)

    def gradient(self, points: Array) -> Array:
        pts = np.asarray(points, dtype=float)
        return np.asarray(self.grad(pts), dtype=float)

    # -- algebra ------------------------------------------------------------

    def _lift(self, other) -> "AnalyticScalar":
        if isinstance(other, AnalyticScalar):
            if other.dim != self.dim:
                raise GridMismatch("dimension mismatch in analytic expression")
            return other
        return constant(float(other), self.dim)

    def __add__(self, other) -> "AnalyticScalar":
        o = self._lift(other)
        return AnalyticScalar(
            self.dim,
            lambda p: self.val(p) + o.val(p),
            lambda p: self.grad(p) + o.grad(p),
        )

    __radd__ = __add__

    def __mul__(self, other) -> "AnalyticScalar":
        o = self._lift(other)

        def grad(p):
            return (
                self.val(p)[..., None] * o.grad(p) + o.val(p)[..., None] * self.grad(p)
            )

        return AnalyticScalar(self.dim, lambda p: self.val(p) * o.val(p), grad)

    __rmul__ = __mul__

    def __pow__(self, exponent: float) -> "AnalyticScalar":
        # Chain rule; domain restrictions (positivity for fractional powers)
        # are the caller's responsibility.
        e = float(exponent)

        def grad(p):
            return e * (self.val(p) ** (e - 1.0))[..., None] * self.grad(p)

        return AnalyticScalar(self.dim, lambda p: self.val(p) ** e, grad)


def constant(a: float, dim: int) -> AnalyticScalar:
    a = float(a)

    def val(p):
        return np.full(p.shape[:-1], a)

    def grad(p):
        return np.zeros(p.shape[:-1] + (dim,))

    return AnalyticScalar(dim, val, grad)


def wave(weights, phase: float = 0.0) -> AnalyticScalar:
    """``sin(w . x + phase)``.

    Angular components of ``weights`` should be integers so the expression
    is 2*pi-periodic in those directions.
    """
    w = np.asarray(weights, dtype=float)
    dim = w.size
    phase = float(phase)

    def val(p):
        return np.sin(p @ w + phase)

    def grad(p):
        return np.cos(p @ w + phase)[..., None] * w

    return AnalyticScalar(dim, val, grad)


def bump_profile(lo: float, hi: float):
    """Value-and-derivative closure of the smooth bump on (lo, hi):
    ``f(t) = exp(-1/((t-lo)(hi-t)))``, normalised to peak 1, identically
    zero outside with all derivatives vanishing at the endpoints. Its
    normaliser must be a normal float, so the support is at least ~0.0751.

    Returns a callable mapping a float array t to ``(f(t), f'(t))``.
    """
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise InfeasibleBounds("bump requires hi > lo")
    half = 0.5 * (hi - lo)
    with np.errstate(under="ignore"):
        peak = np.exp(-1.0 / (half * half))
    if not peak >= np.finfo(float).tiny:
        raise InfeasibleBounds(f"bump support ({lo}, {hi}) too narrow: normaliser {peak:.3g} not a normal float")

    def _eval(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        dout = np.zeros_like(t)
        inside = (t > lo) & (t < hi)
        ti = t[inside]
        p = (ti - lo) * (hi - ti)
        with np.errstate(under="ignore"):
            b = np.exp(-1.0 / p) / peak
        out[inside] = b
        # d/dt exp(-1/p) = exp(-1/p) * p' / p^2 with p' = lo + hi - 2 t
        dout[inside] = b * (lo + hi - 2.0 * ti) / (p * p)
        return out, dout

    return _eval


def bump(lo: float, hi: float, dim: int, axis: int = 0) -> AnalyticScalar:
    """Smooth bump along one axis: positive on (lo, hi), identically zero
    outside, all derivatives vanish at the endpoints. Normalised to peak 1."""
    profile = bump_profile(lo, hi)

    def val(p):
        return profile(np.asarray(p[..., axis], dtype=float))[0]

    def grad(p):
        g = np.zeros(p.shape[:-1] + (dim,))
        g[..., axis] = profile(np.asarray(p[..., axis], dtype=float))[1]
        return g

    return AnalyticScalar(dim, val, grad)


def trig_sum(
    dim: int,
    rng: np.random.Generator,
    terms: int = 3,
    amplitude: float = 0.5,
    max_mode: int = 2,
    offset: float = 0.0,
) -> AnalyticScalar:
    """Random smooth expression: offset plus a short sum of waves.

    Angular frequencies are integers in [-max_mode, max_mode] so the result
    is periodic on the torus factor; the t-frequency is a small real number.
    """
    expr = constant(offset, dim)
    for _ in range(terms):
        w = np.zeros(dim)
        w[0] = rng.uniform(-2.0, 2.0)
        w[1:] = rng.integers(-max_mode, max_mode + 1, size=dim - 1)
        amp = amplitude * rng.uniform(0.3, 1.0) / terms
        phase = rng.uniform(0.0, 2.0 * np.pi)
        expr = expr + amp * wave(w, phase)
    return expr

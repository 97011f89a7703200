"""Catalog of scalar functions with verified property flags, multiplicative
pairs (f, g) with f(t) g(t) = t, the superquadratic defect, and the
Jensen-gap infimum for Hermitian pairs.

Flags are declared by the constructors and spot-validated by the test suite,
not derived symbolically. A domain test scales with the largest |point| it
is given, with no absolute floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainViolation, NotSuperquadratic, UnsupportedParameter
from .linalg import _clears, check_hermitian
from .radius import _boundary_inf

NONNEG = "nonnegative"
INCREASING = "increasing"
CONVEX = "convex"
CONCAVE = "concave"
SUPERQUADRATIC = "superquadratic"


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def admit(self, x):
        """Validate an array of points, clipping roundoff at closed endpoints. Their
        distance inside each finite endpoint must pass ``_clears`` at the largest |point|."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.lo == -np.inf and self.hi == np.inf:  # the whole line: nothing to test or clip
            return x
        lo_val = float(x.min(initial=np.inf))
        hi_val = float(x.max(initial=-np.inf))
        scale = max(abs(lo_val), abs(hi_val))
        for val, end, inside, is_open, side in (
            (lo_val, self.lo, lo_val - self.lo, self.lo_open, "lower"),
            (hi_val, self.hi, self.hi - hi_val, self.hi_open, "upper"),
        ):
            if np.isfinite(end) and not _clears(inside, scale, is_open):
                if inside < 0:
                    raise DomainViolation(f"value {val:.6e} outside domain ({side} endpoint {end:g})")
                raise DomainViolation(f"value {val:.6e} too close to open {side} endpoint {end:g}")
        if lo_val < self.lo:
            x = np.maximum(x, self.lo)
        if hi_val > self.hi:
            x = np.minimum(x, self.hi)
        return x


@dataclass(frozen=True)
class ScalarFunction:
    """A catalog function: kind + parameters + declared property flags."""

    kind: str
    params: tuple
    flags: frozenset
    domain: Interval

    def __call__(self, t):
        scalar = np.isscalar(t) or getattr(t, "ndim", 1) == 0
        x = self.domain.admit(t)
        if self.kind == "power":
            (r,) = self.params
            y = x**r
        elif self.kind == "deformed-exp":
            (r,) = self.params
            y = (1.0 + r * x) ** (1.0 / r)
        else:  # pragma: no cover
            raise UnsupportedParameter(f"unknown function kind {self.kind!r}")
        return float(y[0]) if scalar else y

    def derivative(self, t):
        """Pointwise derivative; used as the tangent constant of the defect."""
        x = float(t)
        if self.kind == "power":
            (r,) = self.params
            return r * x ** (r - 1.0) if r != 0 else 0.0
        (r,) = self.params
        return (1.0 + r * x) ** (1.0 / r - 1.0)

    @property
    def name(self):
        prefix = "pow" if self.kind == "power" else "expr"
        return f"{prefix}:{self.params[0]:g}"


def power(r) -> ScalarFunction:
    """t -> t**r; nonnegative integer exponents extend to the whole line,
    other exponents live on [0, inf) (open at 0 when negative).

    Property flags describe the behaviour on [0, inf)."""
    r = float(r)
    flags = {NONNEG}
    if r > 0:
        flags.add(INCREASING)
    if r >= 1 or r < 0:
        flags.add(CONVEX)
    if 0 <= r <= 1:
        flags.add(CONCAVE)
    if r >= 2:
        flags.add(SUPERQUADRATIC)
    if r >= 0 and r == int(r):
        domain = Interval(-np.inf, np.inf)
    else:
        domain = Interval(0.0, np.inf, lo_open=r < 0)
    return ScalarFunction("power", (r,), frozenset(flags), domain)


def deformed_exp_function(r) -> ScalarFunction:
    """t -> (1 + r t)**(1/r), defined where 1 + r t > 0."""
    r = float(r)
    if r == 0:
        raise UnsupportedParameter("deformed exponential is undefined for r = 0")
    flags = {NONNEG, INCREASING}
    if r <= 1:
        flags.add(CONVEX)
    if r >= 1:
        flags.add(CONCAVE)
    if r > 0:
        domain = Interval(-1.0 / r, np.inf, lo_open=True)
    else:
        domain = Interval(-np.inf, -1.0 / r, hi_open=True)
    return ScalarFunction("deformed-exp", (r,), frozenset(flags), domain)


@dataclass(frozen=True)
class SchwarzPair:
    """Non-negative continuous pair with f(t) g(t) = t on [0, inf)."""

    f: ScalarFunction
    g: ScalarFunction

    @property
    def name(self):
        return f"{self.f.name}|{self.g.name}"


def schwarz_power_pair(alpha) -> SchwarzPair:
    """The power pair (t**alpha, t**(1-alpha)), 0 <= alpha <= 1."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise UnsupportedParameter("power pair exponent must lie in [0, 1]")
    return SchwarzPair(power(alpha), power(1.0 - alpha))


def superquadratic_defect(f: ScalarFunction, s, t) -> float:
    """f(t) - f(|t-s|) - C_s (t - s) - f(s) with the catalog tangent C_s = f'(s)."""
    if SUPERQUADRATIC not in f.flags:
        raise NotSuperquadratic(f"{f.name} is not flagged superquadratic")
    s, t = float(s), float(t)
    if s < 0 or t < 0:
        raise DomainViolation("superquadratic defect requires s, t >= 0")
    c_s = f.derivative(s)
    return f(t) - f(abs(t - s)) - c_s * (t - s) - f(s)


def jensen_gap_mu(f: ScalarFunction, A, B):
    """Infimum over unit x of f(<Ax,x>) + f(<Bx,x>) - 2 f(<(A+B)/2 x, x>)
    for a Hermitian pair.

    With u = <Ax,x> and v = <Bx,x>, the objective is
    g(u, v) = f(u) + f(v) - 2 f((u + v) / 2) over the joint numerical range
    W(A + iB). For convex f, g >= 0 with g = 0 at u = v, so the infimum is 0
    when f is affine, or when A - B is indefinite: the sphere is connected,
    so some x has u = v. Otherwise, for strictly convex f, g has no critical
    point in W and its minimum lies on the boundary, found by a search over
    the support angle; the value found is attained, so it is an upper
    estimate of the infimum.

    For stacks of pairs, ``f`` is a sequence of one function per pair, and
    the result is the list of their infima.
    """
    stacked = np.ndim(A) == 3
    fs = list(f) if stacked else [f]
    for fk in fs:
        if CONVEX not in fk.flags:
            raise UnsupportedParameter(f"{fk.name} is not flagged convex")
    A = check_hermitian(A)
    B = check_hermitian(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    if not stacked:
        A, B = A[None], B[None]
    m, n = len(A), A.shape[-1]
    spectra = np.linalg.eigvalsh(np.concatenate([A, B, A - B])).reshape(3, m, n).swapaxes(0, 1)
    out = []
    for fk, lam, P, Q in zip(fs, spectra, A, B, strict=True):
        fk(lam[:2])  # raises DomainViolation if the spectra escape f's domain
        if CONCAVE in fk.flags or lam[2, 0] <= 0.0 <= lam[2, -1]:  # convex and concave: affine
            out.append(0.0)
            continue

        def gap(u, v, fk=fk, lam=lam):
            # <Ax,x> lies in A's spectral interval; clip roundoff that can leave f's domain
            u, v = np.clip(u, lam[0, 0], lam[0, -1]), np.clip(v, lam[1, 0], lam[1, -1])
            return fk(u) + fk(v) - 2.0 * fk((u + v) / 2)

        out.append(_boundary_inf(P, Q, gap))
    return out if stacked else out[0]

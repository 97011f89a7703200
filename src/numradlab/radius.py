"""Numerical radius by a support-line enclosure, and a boundary search of
the joint numerical range of a Hermitian pair.

The enclosure uses the identity  w(A) = max_theta lambda_max((e^{i theta} A
+ e^{-i theta} A*) / 2): every angle is a Hermitian eigenvalue problem whose
top eigenvalue gives a support line and whose negated bottom eigenvalue gives
the antipodal one, the lines' outer polygon gives an upper bound, and one top
eigenvector attains the lower bound. From n = 44 on, a cut within 3e-3 rad
of the top line is not solved but bounded, in O(n), from a solved reference
line near it: a Ritz pair on a fixed 3-dimensional subspace of the
reference's eigenbasis gives a value and a vector that attains it, which is
the line's witness vector, and the Kato-Temple inequality, with Weyl's bound
on the second eigenvalue, an upper bound on the line; a bound looser than
0.01 tol is refused, and that cut is solved as a new reference. A cut
farther out needs only an upper line that resolves its corner: its level c,
the largest support value at t whose corners with the neighbouring lines lie
within radius lo, the best attained value, shrunk by 1e-3 tol. Where a
Cholesky of c I - H(t) completes, lambda_max(H(t)) <= c (Sylvester's inertia
law) and the cut takes the line c, which attains nothing; else it is solved.
A solved line there lies below c too, so neither is ever the farthest
corner's line again, and results stay those of solving every cut. The
boundary search reports values attained by top eigenvectors, so its infima
are upper estimates.
"""

import cmath
import math
from dataclasses import dataclass
from math import acos, atan2, cos, hypot, sin

import numpy as np

from .linalg import _as_square, _pow2_rows, kittaneh_bound

_TWO_PI = 2.0 * np.pi
_SQRT2 = np.sqrt(2.0)


def stream_rng(seed, tag, index=0):
    """Counter-based generator keyed by (seed, tag, index); call-order independent."""
    import hashlib  # loads OpenSSL; imported here because `numradlab radius` draws nothing

    text = f"{int(seed)}|{tag}|{int(index)}".encode()
    entropy = np.frombuffer(hashlib.blake2b(text, digest_size=16).digest(), dtype="<u4")  # the digest int's words
    bg = np.random.Philox(seed=np.random.SeedSequence(entropy=entropy))
    return np.random.Generator(bg)


def complex_gaussian(rng, shape):
    """I.i.d. standard complex normal entries.

    Real/imaginary parts interleave per element, so extending the leading
    axis of ``shape`` extends the stream without changing its prefix.
    """
    if isinstance(shape, (int, np.integer)):
        shape = (shape,)
    z = rng.standard_normal(tuple(shape) + (2,))
    return z.view(np.complex128)[..., 0] / _SQRT2  # each pair (re, im) read as one complex


def quad_forms(M, X):
    """Row-wise quadratic forms x^H M x for a batch X of shape (m, n)."""
    return np.einsum("ij,ij->i", X.conj(), X @ M.T)


@dataclass(frozen=True)
class RadiusResult:
    """Outcome of a numerical-radius computation: w(A) lies in [value, upper].

    ``value`` is attained (up to eigensolver roundoff) by ``witness``, so it
    is a lower bound; ``upper`` is the farthest vertex of an outer polygon of
    support lines, or Kittaneh's bound when that is smaller and was
    evaluated, padded for eigenvalue roundoff, so it is an upper bound.
    ``theta_star`` is the angle of the line whose top eigenvector is
    ``witness``, and need not maximise the support function. A link reads
    as ``left`` a w that its left side rises with, every other w as ``value``.
    """

    value: float
    theta_star: float
    witness: np.ndarray
    upper: float

    @property
    def left(self) -> float:
        """w as the left side of an inequality reads it."""
        return self.value

    @property
    def refinement_width(self) -> float:
        """Width of the enclosure, ``upper - value``."""
        return self.upper - self.value


# The initial lines: 8 angles over a half-turn, solved in one stack, their
# antipodes, and the first angle a turn on, which closes the polygon (``_cuts``).
_HALF_TURN = tuple(_TWO_PI * k / 16 for k in range(8))
_GRID = _HALF_TURN + tuple(t + math.pi for t in _HALF_TURN) + (_TWO_PI,)
# (cos d, sin d) of each step d between neighbouring grid angles.
_GRID_STEPS = tuple((cos(t2 - t1), sin(t2 - t1)) for t1, t2 in zip(_GRID, _GRID[1:]))
# Cut cap: when W(A) is a disk the polygon gap falls only like
# pi^2 w / (2 m^2) over m lines, although ``value`` is exact from the start.
_MAX_CUTS = 64
_EPS = float(np.finfo(float).eps)
# Entries of a group's initial rotation stack (16 bytes each): a stack of
# large matrices is cut in groups, so its memory stays that of a few matrices.
_GROUP_ENTRIES = 2**16
# From n = _NEAR_DIM on, a cut within _NEAR_SPAN rad of the top line, or of a
# reference line, is bounded in O(n) from a reference line's Ritz subspace
# (``_Reference``) instead of solved, and a cut farther out is first tried as
# a level line. With one BLAS thread, enclosures of complex Gaussian matrices
# (tol 1e-12 and 1e-10) took 0.94-1.0 times as long with both as with every
# cut solved at n = 24, 0.84-0.87 at n = 32, 0.71-0.74 at n = 40 and 44, and
# 0.64-0.71 at n = 48 and 64. A lower _NEAR_DIM moves results below 44.
_NEAR_DIM = 44
_NEAR_SPAN = 3e-3
# A bound is kept when its Temple term is at most this share of tol times
# the Ritz value, so a bounded line stays close to the solved one.
_TEMPLE_SHARE = 0.01


class _Reference:
    """The eigenbasis of a solved line, which bounds the lines near it.

    With B = e^{i t0} A / 2, the line at t0 is H(t0) = B + B* = Q diag(lam) Q*
    and H(t0 + pi/2) = i (B - B*). As H(t0 + d) = cos d H(t0) + sin d H(t0 +
    pi/2) exactly, H(t0 + d) is M = cos d diag(lam) + sin d K in the basis Q,
    with K = Q* H(t0 + pi/2) Q. lam and K are held divided by a power of two
    that brings ||M|| below 1, so no square formed in a bound overflows or
    underflows.

    M is proportional to diag(lam) + tan d K, so the top eigenvector e of
    diag(lam) and its perturbation corrections R K e and R K R K e, with R =
    (lam_1 - diag(lam))^+, span a subspace V that holds M's top eigenvector
    to second order at every offset. V, lam V, K V and the projections of
    diag(lam) and K onto V are formed once: a nearby line costs O(n).
    """

    __slots__ = ("t0", "h", "scale", "lam", "Q", "k_norm", "double", "V", "lam_V", "K_V", "lam_VV", "K_VV")

    def __init__(self, t0, half):
        B = cmath.exp(1j * t0) * half
        lam, Q = np.linalg.eigh(B + B.conj().T)
        C = Q.conj().T @ B @ Q
        K = 1j * (C - C.conj().T)  # exactly Hermitian, with a real diagonal
        self.t0, self.h, self.Q = t0, float(lam[-1]), Q
        size = max(-lam[0], lam[-1]) + float(np.linalg.norm(K))
        self.scale = math.ldexp(1.0, math.frexp(size)[1])
        self.lam = lam = lam / self.scale
        K = K / self.scale
        self.k_norm = float(np.linalg.norm(K))  # ||K||_2 <= ||K||_F
        # With lam_1 - lam_2 within the roundoff slack of ``line``, Weyl's test
        # fails at every offset: such a line bounds no line near it.
        self.double = lam[-1] - lam[-2] <= len(lam) * _EPS
        if self.double:
            return
        gap = lam[-1] - lam
        gap[-1] = math.inf  # R has no e component
        first = K[:, -1] / gap
        V = np.zeros((len(lam), 3), dtype=np.complex128)
        V[-1, 0], V[:, 1], V[:, 2] = 1.0, first, (K @ first) / gap
        # Householder QR: orthonormal even where a correction vanishes (a normal A).
        self.V = np.linalg.qr(V)[0]
        self.lam_V, self.K_V = lam[:, None] * self.V, K @ self.V
        self.lam_VV, self.K_VV = self.V.conj().T @ self.lam_V, self.V.conj().T @ self.K_V

    def offset(self, t):
        """The angle from this line to t, in [-pi, pi] (exact)."""
        return math.remainder(t - self.t0, _TWO_PI)

    def line(self, t, tol):
        """The line at t as (h, a, y), or None where the bound is refused.

        The top Ritz pair of M on V gives a unit vector y = V x, with Rayleigh
        quotient a = theta, which y attains, and residual r = M y - theta y,
        formed explicitly. By Weyl, lambda_2(M) <= mu = cos d lam_2 + |sin d|
        ||K||, and where theta > mu the Kato-Temple inequality gives
        lambda_max(M) <= h = theta + ||r||^2 / (theta - mu). Q y is the line's
        witness vector. The bound is refused at a double top, when the Temple
        term exceeds _TEMPLE_SHARE * tol * theta, or when the arithmetic
        overflows, divides by zero or turns invalid.
        """
        if self.double:
            return None
        d = self.offset(t)
        c, s = cos(d), sin(d)
        n = len(self.lam)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                x = np.linalg.eigh(c * self.lam_VV + s * self.K_VV)[1][:, -1]
                y, My = self.V @ x, (c * self.lam_V + s * self.K_V) @ x
                unit = np.linalg.norm(y)
                y, My = y / unit, My / unit
                theta = float(np.vdot(y, My).real)
                res = float(np.linalg.norm(My - theta * y))
        except (FloatingPointError, np.linalg.LinAlgError):
            return None
        # theta, ||r|| and mu are computed within about n eps ||M|| < n eps of
        # the exact values for M and y; raising ||r|| and mu by n eps keeps the
        # Temple term a bound on lambda_max(M) - theta.
        slack = n * _EPS
        mu = c * float(self.lam[-2]) + abs(s) * self.k_norm + slack
        if not theta > mu:
            return None
        res += slack
        temple = res * (res / (theta - mu))
        if not temple <= _TEMPLE_SHARE * tol * theta:
            return None
        return self.scale * (theta + temple), self.scale * theta, y


def _rotated_halves(half, thetas):
    """Re(e^{it} A) for each angle t, from half = A / 2, which may be a stack
    that pairs with the angles by broadcasting. Halving A before the product
    is exact short of underflow, and it saves a pass over the stack.

    The rotation is H + H* with H = e^{it} A / 2: bitwise the sum of
    e^{it} A / 2 and e^{-it} A* / 2, as conj(z) conj(w) = conj(zw), from one
    product instead of two. The sum is formed in place, so the rotations
    take one stack-sized temporary, not two.
    """
    H = np.exp(1j * thetas)[..., None, None] * half
    H += H.conj().swapaxes(-1, -2)
    return H


def _near_line(refs, half, t, top, tol):
    """The line at t as (h, a, (Q, y)) from the references ``refs`` of the
    matrix 2 half, or None to solve it values-only: a cut near a reference is
    bounded from the nearest one, unless that one's top is double, and one
    near the top line at angle ``top`` that no reference bounds becomes a new
    reference, solved with eigenvectors and appended to ``refs``. The line's
    witness vector is Q y, or Q's last column where y is None."""
    ref = min(refs, key=lambda ref: abs(ref.offset(t)), default=None)
    if ref is not None and abs(ref.offset(t)) <= _NEAR_SPAN:
        if ref.double:  # a new reference this near would have a double top too
            return None
        line = ref.line(t, tol)
        if line is not None:
            h, a, y = line
            return h, a, (ref.Q, y)
    elif abs(math.remainder(t - top, _TWO_PI)) > _NEAR_SPAN:
        return None
    ref = _Reference(t, half)
    refs.append(ref)
    return ref.h, ref.h, (ref.Q, None)


def _level_line(half, t, level):
    """The line (level, -inf, None) at t of the matrix 2 half where a Cholesky
    of level I - H(t) completes, proving lambda_max(H(t)) <= level; else None."""
    H = cmath.exp(1j * t) * half
    try:
        np.linalg.cholesky(level * np.eye(len(half)) - (H + H.conj().T))
    except np.linalg.LinAlgError:
        return None
    return level, -math.inf, None


def _cuts(A, half, thetas, hs, tol):
    """The cutting loop of one matrix's enclosure, half = A / 2, as a
    generator: it yields the angle of each cut to be solved values-only and
    is sent that line's support value. From n = _NEAR_DIM on it first bounds
    a cut near the top line from its own references (``_near_line``) or
    closes a far one with a level line (``_level_line``), and yields only the
    cuts that neither settles. Each line has a value a <= h that a unit
    vector attains there: a = h for a solved line.

    Line k is Re(e^{i t_k} z) <= h_k, starting from the grid angles
    ``_GRID``; corner k joins lines k and k + 1, and the last line repeats
    the first one turn on, so corners need no wrap. The corner of lines at
    t_k < t_{k+1} < t_k + pi lies h_k along line k's normal and -s along the
    line, s = (h_k cos d - h_{k+1}) / sin d with d = t_{k+1} - t_k; it is kept
    as (r, step): its distance r from 0, and the step from t_k to the angle
    of the line whose normal points at it.
    Returns the farthest corner's distance, the cap, the angles of the lines
    the witness comes from, and the witness vectors of the reference and
    bounded lines by angle, as (Q, y) (``_near_line``).
    """
    hs.append(hs[0])
    attained = list(hs)
    lo = max(hs)
    t_lo = thetas[hs.index(lo)]
    sides = [(h1, (h1 * cos_d - h2) / sin_d) for h1, h2, (cos_d, sin_d) in zip(hs, hs[1:], _GRID_STEPS)]
    corners = [(hypot(h1, s), atan2(-s, h1)) for h1, s in sides]
    cap, cuts, near = math.inf, _MAX_CUTS, A.shape[-1] >= _NEAR_DIM
    refs, vectors = [], {}
    if lo - min(hs) <= tol * lo:
        cap, cuts = kittaneh_bound(A)[0], _MAX_CUTS - 1
    corner = max(corners)
    for _ in range(cuts):
        hi, step = corner
        top = min(hi, cap)
        if top - lo <= tol * top:
            break
        k = corners.index(corner)
        t1, t2 = thetas[k], thetas[k + 1]
        t = t1 + step
        if not t1 < t < t2:  # the corner is resolved to roundoff
            break
        h1, h2 = hs[k], hs[k + 1]
        line = None
        if near:
            line = _near_line(refs, half, t, t_lo, tol)
            if line is None and abs(h1) < lo and abs(h2) < lo:
                below = min(cos(t - t1 - acos(h1 / lo)), cos(t2 - t - acos(h2 / lo)))
                line = _level_line(half, t, lo * below * (1 - 1e-3 * tol))
        if line is None:
            h = yield t
            line = h, h, None
        h, a, vector = line
        if vector is not None:
            vectors[t] = vector
        if a > lo:
            lo, t_lo = a, t
        d1, d2 = t - t1, t2 - t
        s = (h1 * cos(d1) - h) / sin(d1)
        corners[k] = hypot(h1, s), atan2(-s, h1)
        s = (h * cos(d2) - h2) / sin(d2)
        corners.insert(k + 1, (hypot(h, s), atan2(-s, h)))
        thetas.insert(k + 1, t)
        hs.insert(k + 1, h)
        attained.insert(k + 1, a)
        corner = max(corners)
    hi, step = corner
    top = min(hi, cap)
    if top - lo <= tol * top:
        # The top line's eigenvector attains at least lo, so the gap stays within tol.
        return hi, cap, [thetas[attained.index(lo)]], vectors
    # On a cut cap or a resolved corner, the witness also comes from both
    # lines of the farthest corner: the vertex lies on those lines,
    # although none of them need point at it.
    k = corners.index(corner)
    return hi, cap, [thetas[j] for j in sorted({attained.index(lo), k, (k + 1) % (len(thetas) - 1)})], vectors


def _enclose(A, exps, tol):
    """Enclosures of the matrices 2^e A_r of the stack A, cut in lockstep.

    Each row makes exactly the cuts it makes alone (``_cuts``), and each
    round stacks the next values-only solve of every row still cutting into
    one eigenvalue solve; the last row cutting solves its own.
    """
    n = A.shape[-1]
    half = A / 2
    # 16 initial lines: line k + m is the antipode of line k, h(t + pi) =
    # -lambda_min at t, so m = 8 solves cover them.
    m = len(_HALF_TURN)
    rotations = _rotated_halves(half[:, None], np.array(_HALF_TURN))
    ev = np.linalg.eigvalsh(rotations.reshape(-1, n, n)).reshape(len(A), m, n)
    tops, bottoms = ev[:, :, -1].tolist(), (-ev[:, :, 0]).tolist()
    loops = [_cuts(A[r], half[r], list(_GRID), tops[r] + bottoms[r], tol) for r in range(len(A))]
    ends = [None] * len(A)

    def advance(rows, hs):
        """Send each row its line's support value; return (row, angle) of the next solves."""
        live = []
        for r, h in zip(rows, hs):
            try:
                live.append((r, loops[r].send(h)))
            except StopIteration as stop:
                ends[r] = stop.value
        return live

    live = advance(range(len(A)), [None] * len(A))
    while len(live) > 1:
        rows, ts = zip(*live)
        # While every row cuts, rows is 0..len(A) - 1 in order: no gather.
        halves = half if len(rows) == len(A) else half[list(rows)]
        live = advance(rows, np.linalg.eigvalsh(_rotated_halves(halves, np.array(ts)))[:, -1].tolist())
    if live:
        # The last row cutting solves its lines one at a time.
        ((r, t),) = live
        loop, half_r = loops[r], half[r]
        try:
            while True:
                H = cmath.exp(1j * t) * half_r
                t = loop.send(float(np.linalg.eigvalsh(H + H.conj().T)[-1]))
        except StopIteration as stop:
            ends[r] = stop.value
    # A witness line that is a reference or a bounded line brings its own
    # vector, which attains its value a; the lines solved values-only take
    # one stacked eigh.
    solve = [(r, t) for r, (_, _, lines, vectors) in enumerate(ends) for t in lines if t not in vectors]
    if solve:
        owner, angles = zip(*solve)
        solved_vectors = iter(np.linalg.eigh(_rotated_halves(half[list(owner)], np.array(angles)))[1][:, :, -1])

    def witness_vector(vectors, t):
        if t not in vectors:
            return next(solved_vectors)
        Q, y = vectors[t]
        return Q[:, -1] if y is None else Q @ y

    out = []
    for r, (hi, cap, lines, vectors) in enumerate(ends):
        M = A[r]
        Xr = np.array([witness_vector(vectors, t) for t in lines])
        mods = np.abs(np.einsum("ki,ij,kj->k", Xr.conj(), M, Xr))
        best = int(np.argmax(mods))
        lo, t_best, witness = float(mods[best]), lines[best], Xr[best]
        # Each computed h is within a small multiple of n eps ||H|| of the true
        # eigenvalue (backward stability), and ||H|| <= ||A||_F.
        # A bounded line is too. Its reference eigh is exact for H(t0) + E with
        # ||E|| and Q's departure from unitarity within about n eps ||H||, and K
        # and M carry the roundoff of two products, about n eps ||A||_F each; so
        # M is within a small multiple of n eps ||A||_F of Q* H(t) Q for a unitary
        # Q. The offset d = t - t0 is exact, and cos d and sin d are within eps.
        # The bound raises ||r|| and mu by n eps ||M|| for the roundoff of the
        # Ritz step, so h >= lambda_max(M) up to theta's own roundoff, and
        # it is within a small multiple of n eps ||A||_F of a true upper bound.
        # So is a level line: a completed Cholesky of c I - H proves c I - H + E
        # >= 0, ||E|| within a small multiple of n eps (|c| + ||H||) (Demmel,
        # LAPACK Working Note 14; Higham, Accuracy and Stability, 10.1), |c| <= lo.
        eps_f = _EPS * float(np.linalg.norm(M))
        pad = M.shape[0] * eps_f
        # An antipodal line is recorded at fl(t + pi), within 6e-16 < 3 eps rad of
        # t + pi. As |h'| <= w <= ||A||_F, its offset is then short by at most
        # 3 eps ||A||_F, which n eps ||A||_F alone does not cover at n = 2; the
        # polygon's pad adds that much.
        # The cap's SVD is exact for some A + E, with ||E||_F and the factors'
        # departure from unitarity within about a pad; |A| and |A*| then move by
        # at most sqrt(2) ||E||_F each (Araki-Yamagami), and the factors add up to
        # 2 pads to the halved sum. Forming that sum, of Frobenius norm at most
        # ||A||_F, and solving its top eigenvalue add about a pad each. 8 pads
        # round that up; on square-zero A (n = 2..64) |cap - w| stays below 1 pad.
        upper = max(min(max(hi, lo) + pad + 3 * eps_f, cap + 8 * pad), lo + pad)
        # Into the subnormal range ldexp rounds to nearest, a step far above the
        # pads, so a bound it moved inward is stepped back out.
        e = exps[r]
        value, top = math.ldexp(lo, e), math.ldexp(upper, e)
        if math.ldexp(value, -e) > lo:
            value = math.nextafter(value, -math.inf)
        if math.ldexp(top, -e) < upper:
            top = math.nextafter(top, math.inf)
        out.append(RadiusResult(value, t_best % _TWO_PI, witness, top))
    return out


def numerical_radius(A, tol=1e-10):
    """Numerical radius by a two-sided support-line enclosure.

    Each angle t gives the support line Re(e^{it} z) <= h(t) of W(A), with
    h(t) = lambda_max((e^{it} A + e^{-it} A*) / 2) <= w(A). The lines bound
    W(A) by a polygon whose farthest vertex is an upper bound (Johnson 1978).
    Starting from 16 uniform angles, one line is cut at the farthest vertex
    until it is within ``tol`` (relative) of max h (Uhlig 2009), or a fixed
    cut cap is reached. The rotation at t + pi is the negated one at t, so
    the initial lines take 8 eigenvalue-only solves over a half-turn, and
    the cuts solve eigenvalues only. From n = _NEAR_DIM on, cuts near the
    top line are bounded from reference lines and far ones may be level
    lines (module docstring). The attained lower bound max |x*Ax| >= max h
    comes from the top eigenvector x of the top line once the gap is within
    ``tol``, and from at most three lines otherwise.
    When the initial support values are flat to ``tol``, W(A) looks like a
    disk centred at 0, where the polygon closes slowly; Kittaneh's bound,
    which is exact for square-zero A, then also caps the upper bound.

    ``A`` may also be an (m, n, n) stack; the result is then a list of m
    results, each bitwise equal to that of its matrix alone. The matrices are
    cut in lockstep, in groups whose initial rotations hold at most
    ``_GROUP_ENTRIES`` entries (128 matrices at n = 8 and 2 at n = 64): the
    initial lines of a group form one stacked solve, each round stacks the
    next values-only solve of every row still cutting, and the witness lines
    solved values-only form one stacked ``eigh``.
    """
    M = _as_square(A)
    stacked = M.ndim == 3
    M = M if stacked else M[None]
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    # w(2^e A) = 2^e w(A) exactly, and the scaled rotations and norm stay in range.
    M, exps = _pow2_rows(M)
    exps = exps.tolist()
    n = M.shape[-1]
    step = max(1, _GROUP_ENTRIES // (8 * n * n))
    results = []
    # An underflow here is roundoff far below the pads (an SVD factor of J_n
    # underflows in Kittaneh's bound), so it does not raise even where the
    # caller makes it.
    with np.errstate(under="ignore"):
        for k in range(0, len(M), step):
            results += _enclose(M[k : k + step], exps[k : k + step], tol)
    return results if stacked else results[0]


# Zoom rounds of the boundary search: each shrinks the angle step four-fold,
# from 2 pi / 16 to below 1e-7, where the value is resolved to roundoff.
_ZOOM_ROUNDS = 11


def _boundary_inf(P, Q, objective):
    """Least value of objective(u, v) over boundary points (u, v) = (<Px,x>, <Qx,x>)
    of the joint numerical range of Hermitian P, Q.

    The top eigenvector x of cos t P + sin t Q gives the boundary point with
    outer normal (cos t, sin t) (Johnson 1978); the best of 16 angles is zoomed
    by six stacked angles per round. Every value is attained, so the result is
    an upper estimate of the infimum over the sphere.
    """
    half = (P - 1j * Q) / 2  # A / 2, where Re(e^{it} A) = cos t P + sin t Q

    def values(thetas):
        X = np.linalg.eigh(_rotated_halves(half, thetas))[1][:, :, -1]
        return objective(quad_forms(P, X).real, quad_forms(Q, X).real)

    step = _TWO_PI / 16
    thetas = step * np.arange(16)
    vals = values(thetas)
    k = int(np.argmin(vals))
    t, best = thetas[k], float(vals[k])
    offsets = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    for _ in range(_ZOOM_ROUNDS):
        step /= 4
        thetas = t + step * offsets
        vals = values(thetas)
        k = int(np.argmin(vals))
        if vals[k] < best:
            t, best = thetas[k], float(vals[k])
    return best

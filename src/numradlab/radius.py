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
0.01 tol is refused, and that cut is solved as a new reference. The
boundary search reports values attained by top eigenvectors, so its infima
are upper estimates.
"""

import cmath
import math
from dataclasses import dataclass
from math import atan2, cos, hypot, sin

import numpy as np

from .linalg import _as_square, _pow2_rows, as_matrix

_TWO_PI = 2.0 * np.pi


def stream_rng(seed, tag, index=0):
    """Counter-based generator keyed by (seed, tag, index); call-order independent."""
    import hashlib  # loads OpenSSL; imported here because `numradlab radius` draws nothing

    text = f"{int(seed)}|{tag}|{int(index)}".encode()
    entropy = int.from_bytes(hashlib.blake2b(text, digest_size=16).digest(), "little")
    bg = np.random.Philox(seed=np.random.SeedSequence(entropy=entropy))
    return np.random.Generator(bg)


def complex_gaussian(rng, shape):
    """I.i.d. standard complex normal entries.

    Real/imaginary parts interleave per element, so extending the leading
    axis of ``shape`` extends the stream without changing its prefix.
    """
    if np.isscalar(shape):
        shape = (shape,)
    z = rng.standard_normal(tuple(shape) + (2,))
    return z.view(np.complex128)[..., 0] / np.sqrt(2.0)  # each pair (re, im) read as one complex


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
    """

    value: float
    theta_star: float
    witness: np.ndarray
    upper: float

    @property
    def refinement_width(self) -> float:
        """Width of the enclosure, ``upper - value``."""
        return self.upper - self.value


# Cut cap: when W(A) is a disk the polygon gap falls only like
# pi^2 w / (2 m^2) over m lines, although ``value`` is exact from the start.
_MAX_CUTS = 64
_EPS = float(np.finfo(float).eps)
# Entries of a group's initial rotation stack (16 bytes each): a stack of
# large matrices is cut in groups, so its memory stays that of a few matrices.
_GROUP_ENTRIES = 2**16
# From n = _NEAR_DIM on, a cut within _NEAR_SPAN rad of the top line, or of a
# reference line, is bounded in O(n) from a reference line's Ritz subspace
# (``_Reference``) instead of solved. With one BLAS thread a bounded line
# costs 25-40 us at any n and a reference about 3.2 `eigvalsh` at n = 64:
# enclosures of complex Gaussian matrices (tol 1e-12 and 1e-10) took about
# as long with bounds at n = 24 and 32, 0.8-1.0 times as long at n = 40,
# and 0.63-0.8 times at n = 48 and 64. A lower _NEAR_DIM moves results below 44.
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


def _rotated_stack(A, thetas):
    """Re(e^{it} A) for each angle t."""
    return _rotated_halves(A / 2, thetas)


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


def _corner(t1, h1, t2, h2):
    """Corner of the support lines Re(e^{it} z) = h at angles t1 < t2 < t1 + pi.

    Returns its distance from 0 and the angle step from t1 to the line
    whose normal points at it.
    """
    d = t2 - t1
    s = (h1 * cos(d) - h2) / sin(d)
    return hypot(h1, s), atan2(-s, h1)


def _kittaneh_bound(A):
    """Kittaneh's upper bound (|| |A| + |A*| ||) / 2 on w(A), from one SVD.

    For A = U S V*, |A| = V S V* and |A*| = U S U*. The SVD is backward
    stable, whereas forming |A| from a Gram spectrum would turn eps-level
    roundoff into sqrt(eps)-level error.
    """
    U, s, Vh = np.linalg.svd(A)
    V = Vh.conj().T
    return float(np.linalg.eigvalsh((U * s) @ U.conj().T + (V * s) @ Vh)[-1]) / 2


def _cuts(A, thetas, hs, tol):
    """The cutting loop of one matrix's enclosure, as a generator: it yields
    the angle of each cut and that of the top line, and is sent the cut's
    line as a pair (h, a): its support value h and a value a <= h that a
    unit vector attains there (a = h for a solved line).

    Line k is Re(e^{i t_k} z) <= h_k; corner k joins lines k and k + 1, and
    the last line repeats the first one turn on, so corners need no wrap.
    Returns the farthest corner's distance, the cap, and the angles of the
    lines the witness comes from.
    """
    hs.append(hs[0])
    attained = list(hs)
    lo = max(hs)
    t_lo = thetas[hs.index(lo)]
    corners = [_corner(thetas[k], hs[k], thetas[k + 1], hs[k + 1]) for k in range(len(hs) - 1)]
    cap, cuts = math.inf, _MAX_CUTS
    if lo - min(hs) <= tol * lo:
        cap, cuts = _kittaneh_bound(A), _MAX_CUTS - 1
    for _ in range(cuts):
        hi, step = max(corners)
        top = min(hi, cap)
        if top - lo <= tol * top:
            break
        k = corners.index((hi, step))
        t = thetas[k] + step
        if not thetas[k] < t < thetas[k + 1]:  # the corner is resolved to roundoff
            break
        h, a = yield t, t_lo
        if a > lo:
            lo, t_lo = a, t
        corners[k] = _corner(thetas[k], hs[k], t, h)
        corners.insert(k + 1, _corner(t, h, thetas[k + 1], hs[k + 1]))
        thetas.insert(k + 1, t)
        hs.insert(k + 1, h)
        attained.insert(k + 1, a)
    hi, step = max(corners)
    top = min(hi, cap)
    if top - lo <= tol * top:
        # The top line's eigenvector attains at least lo, so the gap stays within tol.
        return hi, cap, [thetas[attained.index(lo)]]
    # On a cut cap or a resolved corner, the witness also comes from both
    # lines of the farthest corner: the vertex lies on those lines,
    # although none of them need point at it.
    k = corners.index((hi, step))
    return hi, cap, [thetas[j] for j in sorted({attained.index(lo), k, (k + 1) % (len(thetas) - 1)})]


def _enclose(A, exps, grid, tol):
    """Enclosures of the matrices 2^e A_r of the stack A, cut in lockstep.

    Each row makes exactly the cuts it makes alone, and each round solves
    the cuts of all rows still cutting at once, except, from n = _NEAR_DIM
    on, the cuts that each row bounds from its own references.
    """
    n = A.shape[-1]
    half = A / 2
    # Line k + m is the antipode of line k: h(t + pi) = -lambda_min at t.
    m = (grid + 1) // 2
    thetas = [_TWO_PI * k / (2 * m) for k in range(m)]
    rotations = _rotated_halves(half[:, None], np.array(thetas))
    ev = np.linalg.eigvalsh(rotations.reshape(-1, n, n)).reshape(len(A), m, n)
    thetas += [t + math.pi for t in thetas] + [_TWO_PI]
    tops, bottoms = ev[:, :, -1].tolist(), (-ev[:, :, 0]).tolist()
    loops = [_cuts(A[r], list(thetas), tops[r] + bottoms[r], tol) for r in range(len(A))]
    ends = [None] * len(A)
    refs = [[] for _ in range(len(A))] if n >= _NEAR_DIM else None
    # Each row's reference and bounded lines by angle, as (Q, y): the line's
    # witness vector is Q y, or Q's last column where y is None.
    vectors = [{} for _ in range(len(A))]

    def near_line(r, t, top):
        """The line at t of row r from its references, or None to solve it
        values-only: a cut near a reference is bounded from the nearest one,
        unless that one's top is double, and one near the top line that no
        reference bounds becomes a new reference, solved with eigenvectors."""
        if refs is None:
            return None
        ref = min(refs[r], key=lambda ref: abs(ref.offset(t)), default=None)
        if ref is not None and abs(ref.offset(t)) <= _NEAR_SPAN:
            if ref.double:  # a new reference this near would have a double top too
                return None
            line = ref.line(t, tol)
            if line is not None:
                h, a, y = line
                vectors[r][t] = ref.Q, y
                return h, a
        elif abs(math.remainder(t - top, _TWO_PI)) > _NEAR_SPAN:
            return None
        ref = _Reference(t, half[r])
        refs[r].append(ref)
        vectors[r][t] = ref.Q, None
        return ref.h, ref.h

    def solved(rows, ts):
        """The lines (h, h) at angles ts of rows, from one values-only solve."""
        H = np.array([cmath.exp(1j * t) for t in ts])[:, None, None] * half[list(rows)]
        hs = np.linalg.eigvalsh(H + H.conj().swapaxes(1, 2))[:, -1].tolist()
        return list(zip(hs, hs))

    def advance(rows, lines):
        """Send each row its line; return (row, angle, top angle) of the next cuts."""
        live = []
        for r, line in zip(rows, lines):
            try:
                live.append((r, *loops[r].send(line)))
            except StopIteration as stop:
                ends[r] = stop.value
        return live

    # Cuts form their rotations as _rotated_halves does, with cmath.exp phases.
    live = advance(range(len(A)), [None] * len(A))
    while len(live) > 1:
        rows, ts, _ = zip(*live)
        if refs is None:  # below _NEAR_DIM every cut is solved
            lines = solved(rows, ts)
        else:
            lines = [near_line(*cut) for cut in live]
            solve = [k for k, line in enumerate(lines) if line is None]
            if solve:
                for k, line in zip(solve, solved([rows[k] for k in solve], [ts[k] for k in solve])):
                    lines[k] = line
        live = advance(rows, lines)
    if live:
        # The last row cutting solves its lines one at a time.
        ((r, t, top),) = live
        loop, half_r = loops[r], half[r]
        try:
            while True:
                line = near_line(r, t, top)
                if line is None:
                    H = cmath.exp(1j * t) * half_r
                    h = float(np.linalg.eigvalsh(H + H.conj().T)[-1])
                    line = (h, h)
                t, top = loop.send(line)
        except StopIteration as stop:
            ends[r] = stop.value
    # A witness line that is a reference or a bounded line brings its own
    # vector, which attains its value a; the lines solved values-only take
    # one stacked eigh.
    solve = [(r, t) for r, (_, _, lines) in enumerate(ends) for t in lines if t not in vectors[r]]
    if solve:
        owner, angles = zip(*solve)
        solved_vectors = iter(np.linalg.eigh(_rotated_halves(half[list(owner)], np.array(angles)))[1][:, :, -1])

    def witness_vector(r, t):
        if t not in vectors[r]:
            return next(solved_vectors)
        Q, y = vectors[r][t]
        return Q[:, -1] if y is None else Q @ y

    out = []
    for r, (hi, cap, lines) in enumerate(ends):
        M = A[r]
        Xr = np.array([witness_vector(r, t) for t in lines])
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
        e = exps[r]
        out.append(RadiusResult(math.ldexp(lo, e), t_best % _TWO_PI, witness, math.ldexp(upper, e)))
    return out


def numerical_radius(A, grid=16, tol=1e-10):
    """Numerical radius by a two-sided support-line enclosure.

    Each angle t gives the support line Re(e^{it} z) <= h(t) of W(A), with
    h(t) = lambda_max((e^{it} A + e^{-it} A*) / 2) <= w(A). The lines bound
    W(A) by a polygon whose farthest vertex is an upper bound (Johnson 1978).
    Starting from ``grid`` (>= 16, rounded up to even) uniform angles, one
    line is cut at the farthest vertex until it is within ``tol`` (relative)
    of max h (Uhlig 2009), or a fixed cut cap is reached. The rotation at
    t + pi is the negated one at t, so the initial lines take grid / 2
    eigenvalue-only solves over a half-turn, and the cuts solve eigenvalues
    only. The attained lower bound max |x*Ax| >= max h comes from the top
    eigenvector x of the top line once the gap is within ``tol``, and from
    at most three lines otherwise.
    When the initial support values are flat to ``tol``, W(A) looks like a
    disk centred at 0, where the polygon closes slowly; Kittaneh's bound,
    which is exact for square-zero A, then also caps the upper bound.

    ``A`` may also be an (m, n, n) stack; the result is then a list of m
    results, each bitwise equal to that of its matrix alone. The matrices are
    cut in lockstep, in groups whose initial rotations hold at most
    ``_GROUP_ENTRIES`` entries (at grid 16, 128 matrices at n = 8 and 2 at
    n = 64): the initial lines of a group form one stacked solve, each round
    of cuts one more, and the witness lines solved values-only one stacked
    ``eigh``.
    """
    M = np.asarray(A, dtype=np.complex128)
    stacked = M.ndim == 3
    M = _as_square(M, 3) if stacked else as_matrix(M)[None]
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    # w(2^e A) = 2^e w(A) exactly, and the scaled rotations and norm stay in range.
    M, exps = _pow2_rows(M)
    exps = exps.tolist()
    n = M.shape[-1]
    step = max(1, _GROUP_ENTRIES // ((grid + 1) // 2 * n * n))
    results = []
    # An underflow here is roundoff far below the pads (an SVD factor of J_n
    # underflows in Kittaneh's bound), so it does not raise even where the
    # caller makes it.
    with np.errstate(under="ignore"):
        for k in range(0, len(M), step):
            results += _enclose(M[k : k + step], exps[k : k + step], grid, tol)
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
    A = P - 1j * Q  # its rotated Hermitian parts are cos t P + sin t Q

    def values(thetas):
        X = np.linalg.eigh(_rotated_stack(A, thetas))[1][:, :, -1]
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

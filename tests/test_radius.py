import math
import warnings

import numpy as np
import pytest

from numradlab import radius
from numradlab.ensembles import EnsembleSpec, sample
from numradlab.linalg import kittaneh_bound, operator_norm
from numradlab.radius import _rotated_halves, complex_gaussian, numerical_radius, quad_forms, stream_rng
from oracles import DavidsonReference, SphereSampler, sphere_sup


def dense_sweep_oracle(A, grid=100_000):
    """Independent oracle: plain dense angle grid, no refinement."""
    best = -np.inf
    th = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    step = min(10_000, 2**20 // A.size)  # at most 16 MiB of rotations at a time
    for i in range(0, grid, step):
        vals = np.linalg.eigvalsh(_rotated_halves(A / 2, th[i : i + step]))[:, -1]
        best = max(best, float(vals.max()))
    return best


def test_radius_examples():
    assert numerical_radius(np.diag([1.0, -3.0]).astype(complex)).value == pytest.approx(3.0, abs=1e-10)
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    res = numerical_radius(nil)
    assert res.value == pytest.approx(0.5, abs=1e-10)
    # frozen from the dense sweep oracle (and the 2x2 ellipse geometry)
    jordan = np.array([[1, 1], [0, 1]], dtype=complex)
    assert dense_sweep_oracle(jordan, grid=20_000) == pytest.approx(1.5, abs=1e-7)
    assert numerical_radius(jordan).value == pytest.approx(1.5, abs=1e-10)


def test_radius_against_dense_oracle_random():
    rng = stream_rng(20, "oracle")
    for n in (2, 3, 5, 8):
        for _ in range(10):
            A = complex_gaussian(rng, (n, n))
            fast = numerical_radius(A).value
            oracle = dense_sweep_oracle(A, grid=20_000)
            assert fast >= oracle - 1e-9
            assert fast <= oracle + 1e-6  # oracle grid error bound


def test_radius_result_invariants():
    rng = stream_rng(21, "resinv")
    for n in (1, 2, 3, 5, 8):
        A = complex_gaussian(rng, (n, n))
        res = numerical_radius(A)
        nrm = operator_norm(A)
        assert abs(np.linalg.norm(res.witness) - 1.0) <= 1e-12
        rq = abs(np.vdot(res.witness, A @ res.witness))
        assert rq <= res.value + 1e-9 * (1.0 + nrm)
        assert res.value <= res.upper
        assert 0.0 <= res.theta_star < 2 * np.pi
        assert nrm / 2 - 1e-10 <= res.value <= nrm + 1e-10


def record_solves(m, calls):
    """Make np.linalg's solvers, within the monkeypatch context m, append
    (function name, input shape) to ``calls``; a Cholesky that does not
    complete is recorded as "cholesky failed"."""
    for name in ("eigh", "eigvalsh", "svd", "cholesky"):

        def recording(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            try:
                out = _solve(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                calls.append((_name + " failed", a.shape))
                raise
            calls.append((_name, a.shape))
            return out

        m.setattr(np.linalg, name, recording)


def enclosed_radius(A, monkeypatch, solves=None, exact=None):
    """numerical_radius(A), checked against the enclosure's own guarantees:
    value <= upper, upper above the dense-sweep oracle (or above ``exact``,
    a known w(A), when given), at most the initial stack plus the cut cap of
    solved lines (eigenvalue-only or reference) and level lines (completed
    Cholesky tests, from n = ``_NEAR_DIM`` on only), eigenvectors only for at
    most one stacked witness solve of at most three lines, for reference
    solves from n = ``_NEAR_DIM`` on and for their 3x3 Ritz problems, and at
    most one SVD for Kittaneh's bound. The witness solve is missing only
    where every witness line is a reference or a bounded line, which brings
    its own vector. Every solve is appended to ``solves`` as (function name,
    input shape) when given."""
    calls = []
    with monkeypatch.context() as m:
        record_solves(m, calls)
        res = numerical_radius(A)
    if solves is not None:
        solves.extend(calls)
    assert res.value <= res.upper
    assert res.upper >= (dense_sweep_oracle(A, grid=4096) if exact is None else exact)
    n = A.shape[0]
    values_only = [shape for name, shape in calls if name == "eigvalsh"]
    references = reference_solves(calls, n)
    assert not references or n >= radius._NEAR_DIM
    levels = calls.count(("cholesky", (n, n)))
    assert n >= radius._NEAR_DIM or not any(name.startswith("cholesky") for name, _ in calls)
    solved = sum(1 if len(shape) == 2 else shape[0] for shape in values_only) + len(references)
    assert solved + levels <= 8 + radius._MAX_CUTS
    witness = [shape for name, shape in calls if name == "eigh" and len(shape) == 3]
    assert len(witness) <= 1 and all(shape[0] <= 3 for shape in witness)
    assert witness or references
    ritz = [shape for name, shape in calls if name == "eigh" and len(shape) == 2 and shape != (n, n)]
    assert set(ritz) <= {(3, 3)} and (not ritz or references)
    assert kittaneh_solves(calls, n) <= 1
    return res


def kittaneh_solves(solves, n):
    """How many of the recorded solves are SVDs for Kittaneh's bound."""
    return solves.count(("svd", (n, n)))


def reference_solves(solves, n):
    """The recorded eigenvector solves of single n x n lines: the reference
    lines that bound cuts near them (n >= ``_NEAR_DIM``)."""
    return [shape for name, shape in solves if name == "eigh" and shape == (n, n)]


def square_zero_solves(n):
    """The solves of an enclosure that makes no cut: the half-turn initial
    stack, the SVD with the spectrum of |A| + |A*|, and the top line's witness."""
    return [("eigvalsh", (8, n, n)), ("svd", (n, n)), ("eigvalsh", (n, n)), ("eigh", (1, n, n))]


def witness_lines(solves):
    """How many lines the stacked witness solve among ``solves`` took: 0 when
    no witness line needed one."""
    shapes = [shape for name, shape in solves if name == "eigh" and len(shape) == 3]
    assert len(shapes) <= 1
    return shapes[0][0] if shapes else 0


def test_radius_half_turn_stack_matches_full_turn(monkeypatch):
    # The initial polygon's 2m = 16 lines come from m eigenvalue-only solves
    # over a half-turn: line k + m, at t_k + pi, is read from -lambda_min at t_k.
    m = 8
    rng = stream_rng(31, "half-turn")
    eps = np.finfo(float).eps
    for n in (1, 2, 3, 5, 8):
        A = complex_gaussian(rng, (n, n))
        lines, stacks = [], []
        with monkeypatch.context() as mp:

            def cuts(A, half, thetas, hs, tol, _cuts=radius._cuts):
                lines.append((thetas[: 2 * m], hs[: 2 * m]))  # copies: the loop inserts its cuts
                return _cuts(A, half, thetas, hs, tol)

            def eigvalsh(a, _eigvalsh=np.linalg.eigvalsh):
                stacks.append(a.shape)
                return _eigvalsh(a)

            mp.setattr(radius, "_cuts", cuts)
            mp.setattr(np.linalg, "eigvalsh", eigvalsh)
            numerical_radius(A)
        assert stacks[0] == (m, n, n)
        assert all(len(shape) == 2 for shape in stacks[1:])
        ((thetas, hs),) = lines
        thetas, hs = np.array(thetas), np.array(hs)
        full = 2 * np.pi * np.arange(2 * m) / (2 * m)
        np.testing.assert_allclose(thetas, full, rtol=0, atol=4 * eps)
        reference = np.linalg.eigvalsh(_rotated_halves(A / 2, full))[:, -1]
        assert np.abs(hs - reference).max() <= 4 * n * eps * np.linalg.norm(A)


def test_radius_converged_witness_is_the_top_line(monkeypatch):
    # Once the gap is within tol, the top line's eigenvector attains at least
    # max h, so the witness comes from that line alone: a solved top line takes
    # a one-line witness solve, and from n = _NEAR_DIM on a top line that is a
    # reference or a bounded line brings its own vector and takes none.
    rng = stream_rng(32, "top-line")
    eps = np.finfo(float).eps
    for n in (2, 3, 5, 8, 32, 64):
        A = complex_gaussian(rng, (n, n))
        solves = []
        res = enclosed_radius(A, monkeypatch, solves)
        assert witness_lines(solves) == (0 if n >= radius._NEAR_DIM else 1)
        assert res.upper - res.value <= 1e-10 * res.upper + 2 * (n + 3) * eps * np.linalg.norm(A)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_radius_antipodal_line_on_normal_eigenvalue(scale, monkeypatch):
    # The line at angle t points at e^{-it}. The dominant eigenvalue sits where
    # the antipodal line t = 3 pi / 8 + pi of the initial stack points; that
    # line is recorded at the rounded angle fl(t + pi), whose error the pad
    # covers.
    lam = np.exp(-1j * (2 * np.pi * 3 / 16 + np.pi))
    A = scale * np.diag([lam, 0.4j])
    res = enclosed_radius(A, monkeypatch, exact=abs(A[0, 0]))
    assert res.value == pytest.approx(abs(A[0, 0]), rel=1e-15)


@pytest.mark.parametrize("scale", [1e-150, 1e-18, 1e18, 1e150])
def test_radius_scale_invariance(scale, monkeypatch):
    rng = stream_rng(25, "scale")
    c = scale * np.exp(0.7j)
    for n in (2, 3, 5, 8):
        A = complex_gaussian(rng, (n, n))
        solves = []
        w = enclosed_radius(A, monkeypatch, solves).value
        assert enclosed_radius(c * A, monkeypatch, solves).value / scale == pytest.approx(w, rel=1e-10)
        assert kittaneh_solves(solves, n) == 0  # a generic field is not flat


def test_radius_subnormal_bounds_keep_their_sides():
    # 2^e B is exact for integer B with |entries| <= 8 and e >= -1070, so
    # w(2^e B) = 2^e w(B) lies in 2^e [value(B), upper(B)]. The subnormal
    # enclosure must overlap that interval, compared exactly.
    from fractions import Fraction

    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(2, 6))
        e = int(rng.integers(-1070, -1039))
        B = rng.integers(-8, 9, size=(n, n)) + 1j * rng.integers(-8, 9, size=(n, n))
        A = np.ldexp(B.real, e) + 1j * np.ldexp(B.imag, e)
        assert np.array_equal(np.ldexp(A.real, -e) + 1j * np.ldexp(A.imag, -e), B)
        small, ref = numerical_radius(A), numerical_radius(B)
        scale = Fraction(2) ** e
        assert Fraction(small.upper) >= scale * Fraction(ref.value)
        assert Fraction(small.value) <= scale * Fraction(ref.upper)


def test_radius_rotation_transpose_unitary_invariance(monkeypatch):
    rng = stream_rng(26, "invariance")
    for n in (2, 3, 5, 8):
        A = complex_gaussian(rng, (n, n))
        U, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
        w = enclosed_radius(A, monkeypatch).value
        for B in (np.exp(1j * 2.1) * A, A.T, U @ A @ U.conj().T):
            assert enclosed_radius(B, monkeypatch).value == pytest.approx(w, rel=1e-10)


def test_radius_jordan_blocks(monkeypatch):
    for n in [*range(2, 9), 48, 64]:
        J = np.eye(n, k=1, dtype=complex)
        solves = []
        res = enclosed_radius(J, monkeypatch, solves)
        w = np.cos(np.pi / (n + 1))
        assert res.value == pytest.approx(w, rel=1e-12)
        assert res.upper >= w
        # W(J) is a disk centred at 0, so the flat test fires; Kittaneh's
        # bound is exact for J_2 (square-zero) but equals 1 from n = 3 on.
        assert kittaneh_solves(solves, n) == 1
        # J_2 converges on the cap; from n = 3 on the loop leaves on the cut
        # cap, and the witness keeps the farthest corner's lines.
        assert witness_lines(solves) in ((1,) if n == 2 else (2, 3))
        assert kittaneh_bound(J)[0] == pytest.approx(0.5 if n == 2 else 1.0, rel=1e-14)


def test_radius_special_families(monkeypatch):
    rng = stream_rng(27, "families")
    for n in (1, 2, 3, 5, 8):
        solves = []
        zero = enclosed_radius(np.zeros((n, n), dtype=complex), monkeypatch, solves)
        assert zero.value == zero.upper == 0.0  # the roundoff pad of 0 is 0
        assert solves == square_zero_solves(n)
        c = complex(-1.5, 2.0)
        assert enclosed_radius(c * np.eye(n), monkeypatch).value == pytest.approx(2.5, rel=1e-12)
        u, v = complex_gaussian(rng, n), complex_gaussian(rng, n)
        rank_one = (abs(np.vdot(v, u)) + np.linalg.norm(u) * np.linalg.norm(v)) / 2
        assert enclosed_radius(np.outer(u, v.conj()), monkeypatch).value == pytest.approx(rank_one, rel=1e-10)
    for n in (2, 3, 5, 8):
        S = sample(EnsembleSpec(dim=n, kind="square-zero", seed=28), 0)
        assert enclosed_radius(S, monkeypatch).value == pytest.approx(operator_norm(S) / 2, rel=1e-12)
    res = enclosed_radius(np.array([[3.0 - 4.0j]]), monkeypatch)
    assert res.value == pytest.approx(5.0, rel=1e-15)
    assert abs(np.vdot(res.witness, np.array([3.0 - 4.0j]) * res.witness)) == pytest.approx(5.0, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
def test_radius_square_zero_stops_on_kittaneh_bound(n, monkeypatch):
    # w(S) = ||S|| / 2 = Kittaneh's bound for square-zero S, so one SVD
    # solve after the initial stack closes the enclosure to roundoff.
    S = sample(EnsembleSpec(dim=n, kind="square-zero", seed=29), 0)
    half_norm = np.linalg.svd(S, compute_uv=False)[0] / 2
    for scale in (1e-150, 1e-18, 1.0, 1e18, 1e150):
        solves = []
        res = enclosed_radius(scale * S, monkeypatch, solves, exact=scale * half_norm)
        assert res.upper - res.value <= 1e-10 * res.upper
        assert res.value == pytest.approx(scale * half_norm, rel=1e-12)
        assert solves == square_zero_solves(n)


@pytest.mark.parametrize("kind, n", [("real", 48), ("complex", 64)])
def test_radius_near_lines_on_large_matrices(kind, n, monkeypatch):
    # From n = _NEAR_DIM on, cuts near the top line are bounded from the
    # eigenbasis of a reference line; the enclosure keeps its guarantees and
    # closes to tol as before.
    A = complex_gaussian(stream_rng(37, "near", n), (n, n))
    if kind == "real":
        A = A.real.astype(complex)
    solves = []
    res = enclosed_radius(A, monkeypatch, solves)
    assert len(reference_solves(solves, n)) >= 1
    assert ("eigh", (3, 3)) in solves  # the bound ran on some cut
    assert witness_lines(solves) == 0  # the top line brings its own vector
    eps = np.finfo(float).eps
    assert res.upper - res.value <= 1e-10 * res.upper + 2 * (n + 3) * eps * np.linalg.norm(A)


def near_degenerate(rng, n, gap):
    """A matrix whose Hermitian part has top eigenvalues 1 and 1 - gap, plus a
    small skew-Hermitian part: its top line at angle 0 is nearly double."""
    U, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    lam = np.concatenate([[1.0, 1.0 - gap], rng.uniform(-0.5, 0.5, n - 2)])
    G = complex_gaussian(rng, (n, n))
    return (U * lam) @ U.conj().T + 1e-3 * (G - G.conj().T) / 2


def reference_lines(n):
    """Test matrices at size n, each with a tol, the top angle t0 of its
    enclosure, and the lines (t, top) at offsets up to 3e-3 rad from t0, where
    top is the solved support value: (A, tol, t0, lines). The last matrix has
    a near-double top line."""
    rng = stream_rng(38, "reference", n)
    G = complex_gaussian(rng, (n, n))
    for A in (G, G.real.astype(complex), 1e-150 * G, 1e150 * G, near_degenerate(rng, n, 1e-6)):
        for tol in (1e-12, 1e-10):
            t0 = numerical_radius(A, tol=tol).theta_star
            ts = [t0 + sign * d for d in (1e-6, 1e-4, 1e-3, 3e-3) for sign in (1, -1)]
            tops = np.linalg.eigvalsh(_rotated_halves(A / 2, np.array(ts)))[:, -1]
            yield A, tol, t0, list(zip(ts, tops.tolist()))


@pytest.mark.parametrize("n", [48, 64])
def test_reference_bounds_nearby_lines(n):
    # A reference at the top angle bounds the lines at offsets up to 3e-3 rad:
    # an accepted bound is an upper bound up to roundoff, above the solved line
    # by at most its Temple allowance, and Q y attains its Ritz value there; a
    # refused one is None.
    eps = np.finfo(float).eps
    accepted, refused = 0, 0
    for A, tol, t0, lines in reference_lines(n):
        ref = radius._Reference(t0, A / 2)
        pad = n * eps * np.linalg.norm(A)
        for t, top in lines:
            line = ref.line(t, tol)
            if line is None:
                refused += 1
                continue
            accepted += 1
            h, theta, y = line
            assert theta <= h
            assert h >= top - pad
            assert h <= top + 0.01 * tol * theta + pad
            assert theta <= top + pad
            x = ref.Q @ y
            assert abs(np.linalg.norm(x) - 1.0) <= n * eps
            assert abs(np.vdot(x, _rotated_halves(A / 2, np.array([t]))[0] @ x).real - theta) <= pad
    assert refused > 0  # the near-double top line refuses some bounds
    assert accepted >= 60


@pytest.mark.parametrize("n", [48, 64])
def test_ritz_subspace_accepts_where_davidson_steps_do(n):
    # The reference's fixed Ritz subspace holds the top eigenvector to second
    # order in the offset, so it bounds every line that the two Davidson steps
    # it replaced bound (tests/oracles.py), with their Ritz value to roundoff;
    # both bounds lie within their Temple allowance above the solved line.
    eps = np.finfo(float).eps
    compared = 0
    for A, tol, t0, lines in reference_lines(n):
        ref, oracle = radius._Reference(t0, A / 2), DavidsonReference(t0, A / 2)
        pad = n * eps * np.linalg.norm(A)
        for t, top in lines:
            old = oracle.line(t, tol)
            if old is None:
                continue
            new = ref.line(t, tol)
            assert new is not None
            compared += 1
            assert new[1] == pytest.approx(old[1], rel=1e-14, abs=0.0)
            for h, theta in (new[:2], old):
                assert top - pad <= h <= top + 0.01 * tol * theta + pad
    assert compared >= 60


@pytest.mark.parametrize("n", [48, 64])
def test_radius_near_lines_raise_no_floating_point_error(n, monkeypatch):
    # Degenerate tops make a reference double or fail Weyl's test; each such
    # cut is solved instead, and nothing raises or warns. The level lines of
    # far cuts are tried too: at the zero matrix lo = 0 and no level is
    # defined; on J_n every Cholesky fails and the cut is solved.
    rng = stream_rng(39, "fp", n)
    U, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    lam = np.concatenate([[2.0, 2.0], rng.uniform(-1.0, 1.0, n - 2)])
    B = complex_gaussian(rng, (n // 2, n // 2))
    # W(c I + 1e-14 D) is within 1e-14 of the point c, off the angle grid:
    # its lowest support value lies within 1e-14 of -lo, at the edge of the
    # domain of acos(h / lo)
    shifted = complex(1.5, -2.0) * np.eye(n) + 1e-14 * np.diag(np.exp(2j * np.pi * rng.uniform(size=n)))
    cases = {
        "c I": (complex(-1.5, 2.0) * np.eye(n), 2.5),
        "zero": (np.zeros((n, n), dtype=complex), 0.0),
        "J_n": (np.eye(n, k=1, dtype=complex), np.cos(np.pi / (n + 1))),
        "repeated top modulus": (np.diag(np.exp(2j * np.pi * np.arange(n) / n) * np.where(np.arange(n) < 3, 1, 0.5)), 1.0),
        "double top eigenvalue": ((U * lam) @ U.conj().T, 2.0),
        # every line's top eigenvalue is double: the first near cut becomes a
        # reference that bounds nothing, and later near cuts are solved
        "B + B": (np.kron(np.eye(2), B), numerical_radius(B, tol=1e-12).value),
        "shifted": (shifted, float(np.abs(np.diagonal(shifted)).max())),
    }
    tested = set()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for name, (A, w) in cases.items():
            solves = []
            res = enclosed_radius(A, monkeypatch, solves, exact=w)
            assert res.value == pytest.approx(w, rel=1e-10, abs=0.0), name
            if any(call[0].startswith("cholesky") for call in solves):
                tested.add(name)
            if name == "B + B":
                assert 1 <= len(reference_solves(solves, n)) <= 2
                t0 = res.theta_star
                ref = radius._Reference(t0, A / 2)
                assert ref.double and ref.line(t0 + 1e-6, 1e-10) is None
        # At c I every eigenvalue of the reference line equals its top one: the
        # reference is double, so it bounds no line near it.
        A = cases["c I"][0]
        t0 = numerical_radius(A).theta_star
        ref = radius._Reference(t0, A / 2)
        assert ref.double and all(ref.line(t0 + d, 1e-10) is None for d in (1e-6, -1e-4, 3e-3))
    assert "zero" not in tested and "J_n" in tested


@pytest.mark.parametrize("n", [44, 48, 64])
def test_level_lines_bound_lambda_max(n, monkeypatch):
    # From n = _NEAR_DIM on, a far cut whose Cholesky of c I - H(t) completes
    # takes the level line (c, -inf) instead of a solve. Every such c bounds
    # lambda_max(H(t)), and the result is bitwise that of solving every cut.
    levels = []  # (t, c) of each level line taken

    def level_line(half, t, level, _level_line=radius._level_line):
        line = _level_line(half, t, level)
        if line is not None:
            assert line == (level, -np.inf, None)
            levels.append((t, level))
        return line

    def no_cholesky(a):
        raise np.linalg.LinAlgError("the solve-only path")

    rng = stream_rng(41, "level lines", n)
    taken = 0
    for A in (complex_gaussian(rng, (n, n)), rng.standard_normal((n, n))):
        oracle = dense_sweep_oracle(A, grid=4096)
        pad = n * np.finfo(float).eps * np.linalg.norm(A)
        for tol in (1e-12, 1e-10):
            levels.clear()
            with monkeypatch.context() as m:
                m.setattr(radius, "_level_line", level_line)
                res = numerical_radius(A, tol=tol)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "cholesky", no_cholesky)
                solved = numerical_radius(A, tol=tol)
            assert (res.value, res.upper, res.theta_star) == (solved.value, solved.upper, solved.theta_star)
            assert np.array_equal(res.witness, solved.witness)
            assert res.upper >= oracle
            if levels:
                ts, cs = map(np.array, zip(*levels))
                assert np.all(np.linalg.eigvalsh(_rotated_halves(A / 2, ts))[:, -1] <= cs + pad)
            taken += len(levels)
    assert taken > 0


def test_radius_witness_from_resolved_corner(monkeypatch):
    # W(A) is the segment [l1, l2]. The loop leaves on a corner resolved to
    # roundoff at the vertex l1; both lines of that corner touch it, but no
    # line points at it, so the line of largest h has top eigenvector e2 and
    # |x*Ax| = 0.999 there. The witness must come from the corner's lines.
    A = np.diag([np.exp(2.2656j), 0.999 * np.exp(1.8956j)])
    solves = []
    res = enclosed_radius(A, monkeypatch, solves, exact=1.0)
    assert witness_lines(solves) in (2, 3)
    assert res.value == pytest.approx(1.0, abs=1e-15)
    assert abs(np.vdot(res.witness, A @ res.witness)) == pytest.approx(1.0, abs=1e-15)


def test_radius_rejects_bad_arguments():
    A = np.eye(2, dtype=complex)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            numerical_radius(A, tol=tol)


def test_complex_gaussian_reads_an_integer_shape_as_a_1_tuple():
    # a Python int, a numpy integer and a 1-tuple give one shape, so equal
    # streams give bitwise equal draws
    draws = [complex_gaussian(stream_rng(3, "shape"), shape) for shape in (5, np.int64(5), (5,))]
    assert all(draw.shape == (5,) and draw.tobytes() == draws[0].tobytes() for draw in draws)


def test_sandwich_property_bulk():
    for dim in (2, 3, 5, 8):
        ens = EnsembleSpec(dim=dim, kind="generic", seed=100 + dim)
        for i in range(500):
            A = sample(ens, i)
            res = numerical_radius(A, tol=1e-7)
            nrm = operator_norm(A)
            assert nrm / 2 - 1e-8 <= res.value <= nrm + 1e-8


def test_normal_matrices_radius_is_spectral_radius():
    for dim in (2, 3, 5, 8):
        ens = EnsembleSpec(dim=dim, kind="normal", seed=200 + dim)
        for i in range(25):
            A = sample(ens, i)
            w = numerical_radius(A).value
            rho = float(np.max(np.abs(np.linalg.eigvals(A))))
            assert abs(w - rho) <= 1e-8


def test_square_zero_radius_is_half_norm():
    for dim in (2, 3, 5, 8):
        ens = EnsembleSpec(dim=dim, kind="square-zero", seed=300 + dim)
        for i in range(25):
            A = sample(ens, i)
            w = numerical_radius(A).value
            assert abs(w - operator_norm(A) / 2) <= 1e-8


def test_radius_tridiagonal_toeplitz_closed_form():
    # T_n(a, 0, c), with a below and c above a zero diagonal, has an elliptical
    # disk centred at 0 for its numerical range, and w = (|a| + |c|) cos(pi / (n + 1))
    rng = stream_rng(37, "toeplitz")
    for n in (2, 3, 8, 33, 64, 128):
        for _ in range(5):
            a, c = complex_gaussian(rng, 2)
            w = (abs(a) + abs(c)) * math.cos(math.pi / (n + 1))
            res = numerical_radius(a * np.eye(n, k=-1) + c * np.eye(n, k=1), tol=1e-12)
            assert res.upper >= w
            assert res.value <= w * (1 + 1e-14)  # attained, so above w by roundoff at most
            assert res.value == pytest.approx(w, rel=1e-12, abs=0.0)


def test_radius_volterra_sections():
    # V_n = (L + I/2) / n, with L the strictly lower triangular matrix of ones,
    # is a section of the Volterra operator (Vf)(x) = int_0^x f on L^2[0, 1]:
    # Re V_n = 11^T / (2n), and w(V_n) = w(V) = 1/2, while ||V_n|| rises to
    # ||V|| = 2/pi like 1/n^2
    for n in range(1, 129):
        V = (np.tri(n, k=-1) + np.eye(n) / 2) / n
        res = numerical_radius(V)
        assert res.upper >= 0.5
        assert abs(res.value - 0.5) <= 1e-13  # the roundoff of x*Ax grows like n eps
        assert 0 < 2 / math.pi - operator_norm(V) <= 0.14 / n**2


def test_sphere_sup_examples():
    T = np.diag([1.0, 4.0]).astype(complex)
    val, x = sphere_sup(lambda X: quad_forms(T, X).real, 2, SphereSampler(seed=5))
    assert val == pytest.approx(4.0, abs=1e-6)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    zval, _ = sphere_sup(lambda X: np.zeros(len(X)), 3, SphereSampler(seed=5))
    assert zval == 0.0


def test_sphere_sup_never_exceeds_sweep():
    rng = stream_rng(22, "sweepvs")
    for k in range(100):
        n = int(rng.integers(2, 6))
        A = complex_gaussian(rng, (n, n))
        w = numerical_radius(A).value
        val, _ = sphere_sup(
            lambda X: np.abs(quad_forms(A, X)), n, SphereSampler(seed=3000 + k, samples=1000, descent_steps=20)
        )
        assert val <= w + 1e-9


def test_sampler_determinism_and_prefix():
    s1 = SphereSampler(seed=77, samples=100)
    s2 = SphereSampler(seed=77, samples=100)
    np.testing.assert_array_equal(s1.unit_vectors(4), s2.unit_vectors(4))
    big = SphereSampler(seed=77, samples=400).unit_vectors(4)
    np.testing.assert_array_equal(big[:100], s1.unit_vectors(4))


@pytest.mark.parametrize(
    "key, draws",
    [
        ((1, "ensemble:generic:A", 0),
         ["0x1.20c081006da26p+0", "0x1.e8c418100d38ep-2", "0x1.1fdc1d9874663p-1", "-0x1.f424f4925cdf0p-5"]),
        ((9001, "suite:norm-sandwich:x", 5),
         ["-0x1.d457fd45bc416p-3", "-0x1.c72941ac24060p+0", "0x1.95bde4ec322e5p-1", "0x1.df86aa9c2c278p-1"]),
        ((2**40 + 3, "search:norm-sandwich", 0),
         ["-0x1.af57b5395d55dp-1", "0x1.1a6acfe5aecc6p+1", "-0x1.fc055bb1180d0p-1", "-0x1.768ab36dbdef3p-1"]),
    ],
)
def test_stream_values_are_pinned(key, draws):
    # every certify report and search document is drawn from these streams
    assert [float.hex(float(x)) for x in stream_rng(*key).standard_normal(4)] == draws


def test_stream_key_words_equal_the_digest_integer():
    # SeedSequence reads an int as its little-endian 32-bit words, so the
    # digest's words key the same stream as the digest read as one integer
    import hashlib

    for i in range(2000):
        digest = hashlib.blake2b(f"{i}|words|{i % 13}".encode(), digest_size=16).digest()
        as_int = np.random.SeedSequence(entropy=int.from_bytes(digest, "little"))
        as_words = np.random.SeedSequence(entropy=np.frombuffer(digest, dtype="<u4"))
        np.testing.assert_array_equal(as_words.generate_state(2, np.uint64), as_int.generate_state(2, np.uint64))


def test_euclidean_radius_examples():
    # for a Hermitian pair both quadratic forms are real, so the Euclidean
    # radius sup sqrt(<Ax,x>^2 + <Bx,x>^2) over unit x is w(A + iB)
    I = np.eye(2, dtype=complex)
    assert numerical_radius(I + 1j * I).value == pytest.approx(np.sqrt(2.0), abs=1e-9)
    # frozen from the one-dimensional exhaustive oracle: max over a in [0,1]
    # of sqrt(a^2 + (1-a)^2) = 1 at the endpoints
    D1 = np.diag([1.0, 0.0]).astype(complex)
    D2 = np.diag([0.0, 1.0]).astype(complex)
    assert numerical_radius(D1 + 1j * D2).value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("scale", [1e-160, 1e-11, 1e160])
def test_euclidean_radius_scale_invariance(scale):
    # at 1e+-160 sums of squares of the entries overflow (or underflow)
    rng = stream_rng(30, "wescale")
    A, B = complex_gaussian(rng, (3, 3)), complex_gaussian(rng, (3, 3))
    H, K = A + A.conj().T, B + B.conj().T
    assert numerical_radius(scale * H + 1j * (scale * K)).value / scale == pytest.approx(
        numerical_radius(H + 1j * K).value, rel=1e-9
    )


def test_euclidean_radius_hermitian_vs_sampling():
    rng = stream_rng(24, "wecross")
    for k in range(20):
        n = int(rng.integers(2, 5))
        G1 = complex_gaussian(rng, (n, n))
        G2 = complex_gaussian(rng, (n, n))
        A = G1.conj().T @ G1
        B = G2.conj().T @ G2
        sweep = numerical_radius(A + 1j * B).value
        sampled, _ = sphere_sup(
            lambda X: np.hypot(np.abs(quad_forms(A, X)), np.abs(quad_forms(B, X))),
            n,
            SphereSampler(seed=4000 + k),
        )
        assert sampled <= sweep + 1e-7
        assert sweep <= sampled + 1e-5


def lockstep_rows(n, rng):
    """One matrix of each kind the enclosure treats differently, at size n."""
    rows = [complex_gaussian(rng, (n, n)), np.zeros((n, n), dtype=complex)]
    U, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    rows.append((U * complex_gaussian(rng, n)) @ U.conj().T)  # normal
    if n >= 2:
        rows.append(sample(EnsembleSpec(dim=n, kind="square-zero", seed=33), 0))  # Kittaneh cap
        # a corner resolved to roundoff at the vertex 1 of the segment W(D)
        D = np.zeros((n, n), dtype=complex)
        D[0, 0], D[1, 1] = np.exp(2.2656j), 0.999 * np.exp(1.8956j)
        rows.append(D)
    if n >= 3:
        rows.append(np.eye(n, k=1, dtype=complex))  # J_n: the cut cap
    # inside (2^-500, 2^500) every exponent is 0; beyond it the stack mixes
    # scaled and unscaled rows
    rows += [1e150 * rows[0], 1e-150 * rows[2], 1e160 * rows[0], 1e-160 * rows[2]]
    return rows


def recorded_solves(monkeypatch, f, *args, **kwargs):
    """f(*args, **kwargs) and the (name, input shape) of each solve it made."""
    calls = []
    with monkeypatch.context() as m:
        record_solves(m, calls)
        return f(*args, **kwargs), calls


def cut_solves(calls):
    """Input shapes of the eigenvalue solves after the initial stack, less the
    one that follows each Kittaneh SVD."""
    shapes = [shape for (name, shape), prev in zip(calls[1:], calls) if name == "eigvalsh" and prev[0] != "svd"]
    assert calls[0][0] == "eigvalsh" and len(calls[0][1]) == 3
    return shapes


@pytest.mark.parametrize("n", [1, 2, 3, 8, 48, 64])
def test_radius_stack_matches_single_calls(n, monkeypatch):
    # Each row of a stack makes exactly the cuts it makes alone, so every
    # result is bitwise that of its single call; each round of cuts is one
    # eigenvalue solve, and all witnesses come from one stacked eigh. From
    # n = _NEAR_DIM on, each row also bounds its near cuts from its own
    # reference lines and makes its own Cholesky tests of level lines, as it
    # does alone.
    rows = lockstep_rows(n, stream_rng(34, "lockstep", n))
    tests = []  # (input bytes, completed) of each Cholesky test

    def cholesky(a, _cholesky=np.linalg.cholesky):
        try:
            out = _cholesky(a)
        except np.linalg.LinAlgError:
            tests.append((a.tobytes(), False))
            raise
        tests.append((a.tobytes(), True))
        return out

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    singles, cuts, references = [], [], []
    for A in rows:
        res, calls = recorded_solves(monkeypatch, numerical_radius, A, tol=1e-12)
        singles.append(res)
        cuts.append(len(cut_solves(calls)))
        references.append(len(reference_solves(calls, n)))
    alone, tests[:] = sorted(tests), []
    stacked, calls = recorded_solves(monkeypatch, numerical_radius, np.stack(rows), tol=1e-12)
    assert len(stacked) == len(rows)
    for one, res in zip(singles, stacked):
        assert (res.value, res.upper, res.theta_star) == (one.value, one.upper, one.theta_star)
        assert np.array_equal(res.witness, one.witness)
    assert len(reference_solves(calls, n)) == sum(references)
    # c I - H(t) is bitwise the same matrix in the stack and alone.
    assert sorted(tests) == alone
    if n >= radius._NEAR_DIM:
        # The stack is cut in groups, each with its own initial solve.
        assert sum(references) > 0 and any(done for _, done in alone)
        return
    assert not alone
    m = 8  # grid 16 over a half-turn
    assert calls[0] == ("eigvalsh", (m * len(rows), n, n))
    rounds = cut_solves(calls)
    assert len(rounds) == max(cuts)
    assert sum(shape[0] if len(shape) == 3 else 1 for shape in rounds) == sum(cuts)
    witness = [shape for name, shape in calls if name == "eigh"]
    assert len(witness) == 1 and len(rows) <= witness[0][0] <= 3 * len(rows)
    assert numerical_radius(np.zeros((0, n, n))) == []


@pytest.mark.parametrize("n, rows", [(48, 3), (64, 2)])
def test_radius_lockstep_round_stacks_one_solve_per_live_row(n, rows, monkeypatch):
    # From n = _NEAR_DIM on, each row bounds its near cuts and closes its
    # level lines before it yields a cut, so every lockstep round of a group
    # stacks the next values-only solve of each row still cutting: the group
    # makes as many cut solves as its busiest row does alone.
    group = complex_gaussian(stream_rng(50, "rounds", n), (rows, n, n))
    cuts = [len(cut_solves(recorded_solves(monkeypatch, numerical_radius, A, tol=1e-12)[1])) for A in group]
    _, calls = recorded_solves(monkeypatch, numerical_radius, group, tol=1e-12)
    assert calls[0] == ("eigvalsh", (8 * rows, n, n))  # one group
    rounds = cut_solves(calls)
    assert len(rounds) == max(cuts)
    assert sum(shape[0] if len(shape) == 3 else 1 for shape in rounds) == sum(cuts)


def test_radius_stack_of_large_matrices_is_cut_in_groups(monkeypatch):
    # At n = 64 and grid 16 a group holds two matrices, so five make three
    # groups, each with its own initial solve; every result is still bitwise
    # that of its matrix alone.
    n = 64
    rng = stream_rng(35, "groups")
    rows = [complex_gaussian(rng, (n, n)) for _ in range(5)]
    singles = [recorded_solves(monkeypatch, numerical_radius, A) for A in rows]
    stacked, calls = recorded_solves(monkeypatch, numerical_radius, np.stack(rows))
    for (one, _), res in zip(singles, stacked):
        assert (res.value, res.upper, res.theta_star) == (one.value, one.upper, one.theta_star)
        assert np.array_equal(res.witness, one.witness)
    initial = [shape[0] for name, shape in calls if name == "eigvalsh" and len(shape) == 3 and shape[0] > 2]
    assert initial == [16, 16, 8]
    # A group takes one stacked witness eigh over the witness lines its rows
    # solve alone, and none where they solve none; each row makes its own
    # reference solves.
    lines = [witness_lines(one_calls) for _, one_calls in singles]
    groups = [sum(lines[k : k + 2]) for k in range(0, 5, 2)]
    witness = [shape[0] for name, shape in calls if name == "eigh" and len(shape) == 3]
    assert witness == [count for count in groups if count]
    references = sum(len(reference_solves(one_calls, n)) for _, one_calls in singles)
    assert len(reference_solves(calls, n)) == references > 0


def test_radius_bounded_top_line_is_its_own_witness(monkeypatch):
    # From n = _NEAR_DIM on, a top line bounded from a reference brings its
    # Ritz vector Q y, which attains its Ritz value: no witness eigh re-solves
    # it, and the witness attains the reported value.
    n = 64
    A = complex_gaussian(stream_rng(40, "bounded witness"), (n, n))
    bounded = []

    def line(ref, t, tol, _line=radius._Reference.line):
        out = _line(ref, t, tol)
        if out is not None:
            bounded.append(t % (2 * np.pi))
        return out

    monkeypatch.setattr(radius._Reference, "line", line)
    res, calls = recorded_solves(monkeypatch, numerical_radius, A, tol=1e-12)
    assert res.theta_star in bounded
    assert witness_lines(calls) == 0
    x = res.witness
    assert abs(np.vdot(x, A @ x)) >= res.value * (1 - 1e-12)
    assert res.value <= res.upper
    assert res.upper >= dense_sweep_oracle(A, grid=4096)


def test_radius_rejects_malformed_stacks():
    for bad in (np.zeros((2, 2, 3)), np.zeros((1, 1, 2, 2)), np.full((2, 2, 2), np.nan)):
        with pytest.raises(ValueError):
            numerical_radius(bad)

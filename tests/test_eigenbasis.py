import warnings

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import eigsh

from harmtomo import DomainSpec, build_basis, project, synthesize
from harmtomo import eigenbasis
from harmtomo.eigenbasis import (_interval_wavenumbers, _leggauss, _robin_modes, commensurate,
                                 trace_right_inverse, check_trace_ranks)
from harmtomo.errors import SpectrumError, TraceRankError, GridMismatchError
from harmtomo.scenarios import scenario_hash
from conftest import run_scenario, small_scenario
from oracles import (interval_basis_loop, interval_eigenvalues, interval_wavenumbers_loop,
                     rectangle_basis_loop)

GOLDEN = (1 + 5**0.5) / 2


def gram_matrix(basis):
    return (basis.phi * basis.weights) @ basis.phi.T


def secular_residuals(L, gamma, ks):
    """|(g0 + g1) k cos(kL) + (g0 g1 - k^2) sin(kL)| per wavenumber, relative
    to the size of its coefficients."""
    g0, g1 = gamma
    k = np.asarray(ks, dtype=float)
    val = (g0 + g1) * k * np.cos(k * L) + (g0 * g1 - k * k) * np.sin(k * L)
    scale = (g0 + g1) * k + np.abs(g0 * g1 - k * k)
    return np.abs(val) / np.where(scale > 0, scale, 1.0)


def robin_residuals(L, gamma, count):
    """|-phi'(0) + g0 phi(0)| and |phi'(L) + g1 phi(L)| of the package's 1D
    modes (k, a, norm), with phi = norm (cos(kx) + a sin(kx)) and phi' from
    the closed form norm k (-sin(kx) + a cos(kx)): (count, 2)."""
    g0, g1 = gamma
    k, a, norm = _robin_modes(L, gamma, count)
    kx = np.outer(k, [0.0, L])
    phi = norm[:, None] * (np.cos(kx) + a[:, None] * np.sin(kx))
    dphi = (norm * k)[:, None] * (-np.sin(kx) + a[:, None] * np.cos(kx))
    return np.abs(np.column_stack([-dphi[:, 0] + g0 * phi[:, 0], dphi[:, 1] + g1 * phi[:, 1]]))


def fem_eigenvalues(L, gamma, k, n=10_000):
    """P1 finite element generalized eigenvalue oracle for the Robin operator."""
    h = L / n
    g0, g1 = gamma
    main = np.full(n + 1, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    K = sps.diags([np.full(n, -1.0 / h), main, np.full(n, -1.0 / h)], [-1, 0, 1], format="lil")
    K[0, 0] += g0
    K[n, n] += g1
    m_main = np.full(n + 1, 4 * h / 6)
    m_main[0] = m_main[-1] = 2 * h / 6
    Mm = sps.diags([np.full(n, h / 6), m_main, np.full(n, h / 6)], [-1, 0, 1])
    vals = eigsh(K.tocsc(), k=k, M=Mm.tocsc(), sigma=0.0, which="LM",
                 return_eigenvectors=False)
    return np.sort(vals)


# The last three take the root finder to its extremes: a stiff near-Dirichlet
# end (roots just below the bracket tops), a long interval, and a long
# near-Neumann interval whose first root lies far above its start, the most
# Newton steps of the set.
ROBIN_CASES = [(np.pi, (1.0, 1.0)), (1.0, (0.0, 2.5)), (1.9416, (3.0, 0.0)),
               (np.pi, (0.2, 7.0)), (np.pi, (0.0, 0.0)), (np.pi, (50.0, 50.0)),
               (10.0, (1.0, 1.0)), (10.0, (0.0, 1e-8))]
# Robin cases for the root checks, with a Neumann end and both ends near
# Neumann and both stiff added
PHASE_CASES = [c for c in ROBIN_CASES if any(c[1])] + [
    (np.pi, (0.0, 1.0)), (np.pi, (1e-6, 1e-6)), (np.pi, (1e6, 1e6))]
# Robin sums so small that root 0 is reached only from its small-gamma start
# sqrt((g0 + g1) / L); the roots above it sit on their bracket floors to the
# last bit, so the bracket test does not take them
TINY_SUM_CASES = [(np.pi, (0.0, 1e-80)), (1.0, (1e-120, 1e-120)), (np.pi, (3e-150, 0.0))]


def phase_brentq(L, gamma, count):
    """scipy's brentq on the phase form k L - theta(k) - j pi per bracket, at
    its tightest relative tolerance; the first bracket starts just above 0,
    where theta is discontinuous when g0 g1 = 0."""
    from scipy.optimize import brentq

    g0, g1 = gamma
    s, p = g0 + g1, g0 * g1

    def f(k, j):
        return k * L - np.arctan2(s * k, k * k - p) - j * np.pi

    # where s k underflows at 1e-300, f reads positive there: start root 0's
    # bracket at half its small-gamma asymptote instead
    first = 1e-300 if f(1e-300, 0) < 0 else 0.5 * np.sqrt(s / L)
    return np.array([brentq(f, max(j * np.pi / L, first), (j + 1) * np.pi / L, args=(j,),
                            xtol=1e-300, rtol=8.9e-16, maxiter=500) for j in range(count)])


class TestIntervalBasis:
    def test_neumann_closed_form(self):
        basis = build_basis(DomainSpec("interval", (np.pi,), (0.0, 0.0), (0.0,)), 3)
        assert np.allclose(basis.lambdas, [0.0, 1.0, 4.0], atol=1e-12)
        x = basis.nodes[:, 0]
        assert np.allclose(basis.phi[0], 1.0 / np.sqrt(np.pi), atol=1e-12)
        assert np.allclose(basis.phi[1], np.sqrt(2 / np.pi) * np.cos(x), atol=1e-12)
        assert np.allclose(basis.phi[2], np.sqrt(2 / np.pi) * np.cos(2 * x), atol=1e-12)

    def test_robin_eigenvalue_against_fem_oracle(self):
        lam = interval_eigenvalues(1.0, (1.0, 1.0), 4)
        lam_fd = fem_eigenvalues(1.0, (1.0, 1.0), 4)
        assert np.max(np.abs(lam - lam_fd) / lam_fd) <= 1e-6

    def test_gram_identity(self, basis8):
        G = gram_matrix(basis8)
        assert np.max(np.abs(G - np.eye(basis8.J))) <= 1e-10

    def test_eigen_residuals(self, basis8):
        # the basis eigenvalues solve the secular equation
        assert np.max(secular_residuals(np.pi, (1.0, 1.0), np.sqrt(basis8.lambdas))) <= 1e-10
        for L, gamma in ROBIN_CASES:
            ks = np.sqrt(interval_eigenvalues(L, gamma, 16))
            assert np.max(secular_residuals(L, gamma, ks)) <= 1e-10

    def test_boundary_condition_satisfied(self):
        for L, gamma in ROBIN_CASES:
            assert np.max(robin_residuals(L, gamma, 16)) <= 1e-10

    @pytest.mark.parametrize("L, gamma", ROBIN_CASES)
    @pytest.mark.parametrize("count", [1, 8, 64])
    def test_wavenumber_scan_matches_loop(self, L, gamma, count):
        # all roots at once take the steps of the one-root-at-a-time loop
        assert _interval_wavenumbers(L, *gamma, count).tolist() == \
            interval_wavenumbers_loop(L, *gamma, count)

    @pytest.mark.parametrize("L, gamma", PHASE_CASES + TINY_SUM_CASES)
    @pytest.mark.parametrize("count", [1, 8, 64])
    def test_roots_match_scipy_brentq(self, L, gamma, count):
        k = _interval_wavenumbers(L, *gamma, count)
        assert k.tolist() == interval_wavenumbers_loop(L, *gamma, count)
        assert np.max(np.abs(k - phase_brentq(L, gamma, count)) / k) <= 1e-15

    @pytest.mark.parametrize("L, gamma", PHASE_CASES)
    def test_one_root_per_bracket(self, L, gamma):
        k = _interval_wavenumbers(L, *gamma, 64)
        j = np.arange(64)
        assert np.all((j * np.pi / L < k) & (k < (j + 1) * np.pi / L))
        assert np.all(np.diff(k) > 0)

    @pytest.mark.parametrize("gamma", [(0.0, 1e-300), (1e-200, 1e-200)])
    def test_underflowing_slope_raises_without_warning(self, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectrumError, match="slope underflows"):
                _interval_wavenumbers(np.pi, *gamma, 8)
            with pytest.raises(SpectrumError):
                build_basis(DomainSpec("interval", (np.pi,), gamma, (0.0,)), 8)
            # a Robin sum of 1e-80 is solved from the small-gamma start
            assert build_basis(DomainSpec("interval", (np.pi,), (0.0, 1e-80), (0.0,)), 8).J == 8

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(eigenbasis, "ROBIN_MAXITER", 1)
        with pytest.raises(SpectrumError, match=r"not converged in 1 Newton steps"):
            _interval_wavenumbers(np.pi, 1.0, 1.0, 8)
        with pytest.raises(SpectrumError):
            build_basis(DomainSpec("interval", (np.pi,), (1.0, 1.0), (0.0,)), 8)
        # the Neumann closed form takes no step
        assert build_basis(DomainSpec("interval", (np.pi,), (0.0, 0.0), (0.0,)), 8).J == 8


class TestRectangleBasis:
    def test_distinct_eigenvalues_match_enumeration(self):
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                       ((0.0, 0.0), (0.0, 0.0)), "side:y=0"), 5)
        lx = [j**2 for j in range(5)]
        ly = [(j * GOLDEN)**2 for j in range(5)]
        sums = sorted(a + b for a in lx for b in ly)[:5]
        assert np.allclose(basis.lambdas, sums, rtol=1e-12)
        assert np.all(np.diff(basis.lambdas) > 1e-9)

    def test_square_raises(self):
        with pytest.raises(ValueError, match="commensurate"):
            DomainSpec("rectangle", (1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), "side:y=0")

    def test_eigenvalue_collision_raises(self, monkeypatch):
        # past the side-ratio rule, the square's equal sums trip the spectral gap check
        monkeypatch.setattr(eigenbasis, "commensurate", lambda ratio: False)
        square = DomainSpec("rectangle", (1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), "side:y=0")
        with pytest.raises(SpectrumError, match="degenerate eigenvalue collision"):
            build_basis(square, 4)
        assert build_basis(square, 1).lambdas.tolist() == [0.0]

    def test_single_mode_is_constant(self):
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                       ((0.0, 0.0), (0.0, 0.0)), "side:y=0"), 1)
        assert basis.lambdas[0] == 0.0
        assert np.allclose(basis.phi[0], basis.phi[0][0])

    def test_gram_and_residuals(self):
        Lx, Ly = np.pi, np.pi / GOLDEN
        for gamma in (((1.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (0.5, 2.0))):
            basis = build_basis(DomainSpec("rectangle", (Lx, Ly), gamma, "side:y=0"), 6)
            assert np.max(np.abs(gram_matrix(basis) - np.eye(6))) <= 1e-10
            # each factor solves its secular equation and both of its Robin ends
            lams = []
            for L, g in zip((Lx, Ly), gamma):
                lam = interval_eigenvalues(L, g, 6)
                assert np.max(secular_residuals(L, g, np.sqrt(lam))) <= 1e-10
                assert np.max(robin_residuals(L, g, 6)) <= 1e-10
                lams.append(lam)
            sums = np.sort(np.add.outer(*lams).ravel())[:6]
            assert np.allclose(basis.lambdas, sums, rtol=1e-14, atol=0)

    def test_commensurate_detector(self):
        assert commensurate(1.5)
        assert commensurate(16 / 64)
        assert not commensurate(1 / GOLDEN)


BASIS_ARRAYS = ("lambdas", "phi", "nodes", "weights", "trace_matrix", "sigma_nodes",
                "sigma_weights")
SIDE_POINTS = tuple([(x, 0.0) for x in np.linspace(0.2, 3.0, 12)]
                    + [(0.0, y) for y in np.linspace(0.1, 1.9, 12)])


def assert_same_basis(basis, ref):
    for name in BASIS_ARRAYS:
        assert np.array_equal(getattr(basis, name), getattr(ref, name)), name
    assert basis.domain == ref.domain


class TestBasisMatchesModeLoop:
    # the array passes build every basis array bit for bit as one mode object
    # per mode, evaluated one at a time, and the J x J eigenvalue tuples sorted;
    # ROBIN_CASES hold Neumann ends, on one side and on both

    @pytest.mark.parametrize("L, gamma", ROBIN_CASES)
    @pytest.mark.parametrize("J", [1, 8, 16, 32, 64])
    def test_interval(self, L, gamma, J):
        sig = (0.0, L / 3, L)
        assert_same_basis(build_basis(DomainSpec("interval", (L,), gamma, sig), J),
                          interval_basis_loop(L, gamma, J, sig))

    @pytest.mark.parametrize("gamma", [((1.0, 1.0), (1.0, 1.0)), ((0.0, 0.0), (0.0, 0.0)),
                                       ((0.0, 3.0), (0.5, 0.0))],
                             ids=["robin", "neumann", "mixed"])
    @pytest.mark.parametrize("J", [1, 8, 12, 16, 32])
    @pytest.mark.parametrize("form", ["side", "points"])
    def test_rectangle(self, gamma, J, form):
        sig = "side:y=0" if form == "side" else SIDE_POINTS
        domain = DomainSpec("rectangle", (np.pi, 1.9416110387254665), gamma, sig)
        assert_same_basis(build_basis(domain, J),
                          rectangle_basis_loop(np.pi, 1.9416110387254665, gamma, J, sig))


class TestGaussNodes:
    def test_cached_arrays_are_read_only(self):
        x, w = _leggauss(32)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_builds_get_fresh_equal_arrays(self):
        for domain, J in ((DomainSpec("interval", (np.pi,), (1.0, 1.0), (0.0,)), 8),
                          (DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                      ((1.0, 1.0), (1.0, 1.0)), "side:y=0"), 6)):
            a, b = build_basis(domain, J), build_basis(domain, J)
            assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
            assert a.nodes is not b.nodes and a.weights is not b.weights
            assert not np.shares_memory(a.weights, b.weights)
            assert not np.shares_memory(a.nodes, b.nodes)


class TestProjection:
    def test_unit_vector_round_trip(self, basis8):
        e3 = np.zeros(basis8.J)
        e3[3] = 1.0
        assert np.max(np.abs(project(basis8, synthesize(basis8, e3)) - e3)) <= 1e-12

    def test_eigenfunction_projects_to_unit(self, basis8):
        c = project(basis8, basis8.phi[2])
        e2 = np.zeros(basis8.J)
        e2[2] = 1.0
        assert np.max(np.abs(c - e2)) <= 1e-10

    def test_projection_error_decays(self):
        ref = build_basis(DomainSpec("interval", (np.pi,), (1.0, 1.0), (0.0,)), 256)
        f = np.exp(np.sin(ref.nodes[:, 0]))
        coeffs = project(ref, f)
        tails = [np.linalg.norm(coeffs[J:]) for J in (8, 16, 32)]
        assert tails[0] > tails[1] > tails[2]
        # consistency of the truncated bases with the reference coefficients
        for J in (8, 16, 32):
            bj = build_basis(DomainSpec("interval", (np.pi,), (1.0, 1.0), (0.0,)), J)
            fj = np.exp(np.sin(bj.nodes[:, 0]))
            assert np.max(np.abs(project(bj, fj) - coeffs[:J])) <= 1e-9

    def test_grid_mismatch(self, basis8):
        with pytest.raises(GridMismatchError):
            project(basis8, np.zeros(7))
        with pytest.raises(GridMismatchError):
            synthesize(basis8, np.zeros(5))


class TestTraces:
    def test_neumann_endpoint_trace(self):
        basis = build_basis(DomainSpec("interval", (np.pi,), (0.0, 0.0), (0.0,)), 4)
        expected = np.sqrt(2 / np.pi)
        for j in range(1, 4):
            assert abs(basis.trace_matrix[j, 0] - expected) <= 1e-12
        check_trace_ranks(basis)

    def test_interior_zero_gives_rank_error(self):
        basis = build_basis(DomainSpec("interval", (np.pi,), (0.0, 0.0), (np.pi / 2,)), 3)
        with pytest.raises(TraceRankError) as err:
            trace_right_inverse(basis, np.array([0, 1, 2]))
        assert err.value.ell == 1

    def test_rectangle_side_rank(self):
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                       ((1.0, 1.0), (1.0, 1.0)), "side:y=0"), 6)
        check_trace_ranks(basis)
        rows = trace_right_inverse(basis, np.arange(6))
        assert np.allclose(np.sum(rows * basis.trace_matrix, axis=1), 1.0, rtol=1e-12, atol=0)


def test_domain_spec_invariants():
    with pytest.raises(ValueError):
        DomainSpec("interval", (np.pi,), (1.0, 1.0), ())
    with pytest.raises(ValueError):
        DomainSpec("interval", (-1.0,), (1.0, 1.0), (0.0,))
    with pytest.raises(ValueError):
        DomainSpec("rectangle", (1.0, 0.5), ((0.0, 0.0), (0.0, 0.0)), "side:y=0")


def test_basis_csv_export(tmp_path):
    out, sc = run_scenario(tmp_path, small_scenario("basis-report"))
    lines = (out / "basis.csv").read_text().splitlines()
    assert lines[0].startswith("j,lambda,trace_0")
    assert len(lines) == sc.J + 1
    assert lines[1].endswith(scenario_hash(sc))

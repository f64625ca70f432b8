import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import eigsh

from harmtomo import build_interval_basis, build_rectangle_basis, interval_eigenvalues, project, synthesize
from harmtomo.eigenbasis import (DomainSpec, commensurate, trace_right_inverse,
                                 check_trace_ranks)
from harmtomo.errors import SpectrumError, TraceRankError, GridMismatchError
from harmtomo.scenarios import scenario_hash
from conftest import run_scenario, small_scenario

GOLDEN = (1 + 5**0.5) / 2


def gram_matrix(basis):
    return (basis.phi * basis.weights) @ basis.phi.T


def eigen_residuals(basis):
    """Per-mode quadrature L2 norm of (A phi - lambda phi)."""
    r = basis.phi_lap - basis.lambdas[:, None] * basis.phi
    return np.sqrt((r * r) @ basis.weights)


def fem_smallest_eigenvalue(L, gamma, n=10_000):
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
    vals = eigsh(K.tocsc(), k=1, M=Mm.tocsc(), sigma=0.0, which="LM",
                 return_eigenvectors=False)
    return float(vals[0])


class TestIntervalBasis:
    def test_neumann_closed_form(self):
        basis = build_interval_basis(np.pi, (0.0, 0.0), 3, sigma_points=(0.0,))
        assert np.allclose(basis.lambdas, [0.0, 1.0, 4.0], atol=1e-12)
        x = basis.nodes[:, 0]
        assert np.allclose(basis.phi[0], 1.0 / np.sqrt(np.pi), atol=1e-12)
        assert np.allclose(basis.phi[1], np.sqrt(2 / np.pi) * np.cos(x), atol=1e-12)
        assert np.allclose(basis.phi[2], np.sqrt(2 / np.pi) * np.cos(2 * x), atol=1e-12)

    def test_robin_eigenvalue_against_fem_oracle(self):
        lam = interval_eigenvalues(1.0, (1.0, 1.0), 1)[0]
        lam_fd = fem_smallest_eigenvalue(1.0, (1.0, 1.0))
        assert abs(lam - lam_fd) / lam_fd <= 1e-6

    def test_gram_identity(self, basis8):
        G = gram_matrix(basis8)
        assert np.max(np.abs(G - np.eye(basis8.J))) <= 1e-10

    def test_eigen_residuals(self, basis8):
        assert np.max(eigen_residuals(basis8)) <= 1e-8

    def test_boundary_condition_satisfied(self, basis8):
        # Robin condition rebuilt from closed-form values at the endpoints
        from harmtomo.eigenbasis import _interval_modes
        modes = _interval_modes(np.pi, (1.0, 1.0), 8)
        for m in modes:
            k, a, N = m.k, m.a, m.norm
            dphi0 = N * k * a       # phi'(0)
            assert abs(-dphi0 + 1.0 * m(0.0)) <= 1e-10
            dphiL = N * (-k * np.sin(k * np.pi) + a * k * np.cos(k * np.pi))
            assert abs(dphiL + 1.0 * m(np.pi)) <= 1e-10


class TestRectangleBasis:
    def test_distinct_eigenvalues_match_enumeration(self):
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((0.0, 0.0), (0.0, 0.0)), 5)
        lx = [j**2 for j in range(5)]
        ly = [(j * GOLDEN)**2 for j in range(5)]
        sums = sorted(a + b for a in lx for b in ly)[:5]
        assert np.allclose(basis.lambdas, sums, rtol=1e-12)
        assert np.all(np.diff(basis.lambdas) > 1e-9)

    def test_square_raises(self):
        with pytest.raises(SpectrumError):
            build_rectangle_basis(1.0, 1.0, ((0.0, 0.0), (0.0, 0.0)), 4)

    def test_single_mode_is_constant(self):
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((0.0, 0.0), (0.0, 0.0)), 1)
        assert basis.lambdas[0] == 0.0
        assert np.allclose(basis.phi[0], basis.phi[0][0])

    def test_gram_and_residuals(self):
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 6)
        assert np.max(np.abs(gram_matrix(basis) - np.eye(6))) <= 1e-10
        assert np.max(eigen_residuals(basis)) <= 1e-8

    def test_commensurate_detector(self):
        assert commensurate(1.5)
        assert commensurate(16 / 64)
        assert not commensurate(1 / GOLDEN)


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
        ref = build_interval_basis(np.pi, (1.0, 1.0), 256, sigma_points=(0.0,))
        f = np.exp(np.sin(ref.nodes[:, 0]))
        coeffs = project(ref, f)
        tails = [np.linalg.norm(coeffs[J:]) for J in (8, 16, 32)]
        assert tails[0] > tails[1] > tails[2]
        # consistency of the truncated bases with the reference coefficients
        for J in (8, 16, 32):
            bj = build_interval_basis(np.pi, (1.0, 1.0), J, sigma_points=(0.0,))
            fj = np.exp(np.sin(bj.nodes[:, 0]))
            assert np.max(np.abs(project(bj, fj) - coeffs[:J])) <= 1e-9

    def test_grid_mismatch(self, basis8):
        with pytest.raises(GridMismatchError):
            project(basis8, np.zeros(7))
        with pytest.raises(GridMismatchError):
            synthesize(basis8, np.zeros(5))


class TestTraces:
    def test_neumann_endpoint_trace(self):
        basis = build_interval_basis(np.pi, (0.0, 0.0), 4, sigma_points=(0.0,))
        expected = np.sqrt(2 / np.pi)
        for j in range(1, 4):
            assert abs(basis.trace_matrix[j, 0] - expected) <= 1e-12
        check_trace_ranks(basis)

    def test_interior_zero_gives_rank_error(self):
        basis = build_interval_basis(np.pi, (0.0, 0.0), 3, sigma_points=(np.pi / 2,))
        with pytest.raises(TraceRankError) as err:
            trace_right_inverse(basis, np.array([0, 1, 2]))
        assert err.value.ell == 1

    def test_rectangle_side_rank(self):
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 6,
                                      sigma_points="side:y=0")
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

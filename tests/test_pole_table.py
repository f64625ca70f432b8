"""The per-pole table against the one-pole-at-a-time loops in oracles.py."""

import json

import numpy as np
import pytest

from harmtomo import build_pole_set, invert_mtilde, sources
from harmtomo.cli import main
from harmtomo.errors import ResonanceError, SingularInterpolantError
from harmtomo.norms import _image_terms, image_norms, pole_table
from harmtomo.poles import PoleSet
from harmtomo.reconstruct import LinearizedInput, linearized_forward, reconstruct
from harmtomo.scenarios import load_scenario, make_basis, make_params, make_reference
from harmtomo.sources import interp_kernels
from conftest import SCENARIOS, random_linearized, small_scenario
from oracles import (fit_residues_loop, image_pieces, image_terms, interp_kernels_unscaled,
                     interp_periodic_scalar, oracle_residues, oracle_residues_loop,
                     pole_table_unscaled, recover_coefficients_loop, residue_term, residues_of,
                     yobs_terms_loop, ymod_terms_loop)

TOL = 1e-13
FIT_ORACLE_TOL = 1e-10  # fit/oracle residues at tau 0.05, where the fit's cond is ~5e6


def _rel(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return float(np.max(np.abs(new - old)) / max(np.max(np.abs(old)), 1e-300))


def _data(b, seed):
    lin = random_linearized(b["basis"], b["M"], seed)
    return lin, linearized_forward(b["sp"], b["params"], b["basis"], lin)


def _args(b):
    return b["sp"], b["poles"], b["basis"], b["params"]


def _pieces(b, spec):
    return image_pieces(spec, b["sp"], b["basis"], b["params"], np.flatnonzero(b["poles"].ok),
                        b["M"])


def test_oracle_residues_match_loop(bundle):
    lin, data = _data(bundle, 51)
    b = bundle
    new = oracle_residues(lin, data.rhat, b["poles"], b["sp"], b["basis"], b["params"])
    old = oracle_residues_loop(lin, data.rhat, b["poles"], b["sp"], b["basis"], b["params"])
    assert _rel(new, old) <= TOL
    assert np.all(new[~b["poles"].ok] == 0)


def test_fit_residues_match_loop(bundle):
    # The fit's residues are those of its coefficients.  Where a mode has no
    # pole, the per-point loop fits that mode's data into the other modes and
    # is wrong, so there the truth's residues are the reference.
    lin, data = _data(bundle, 52)
    b = bundle
    rec = reconstruct(data, b["sp"], b["basis"], b["params"])
    assert np.isfinite(rec.fit_cond)
    res = residues_of(rec.a, data.rhat, b["poles"], b["sp"], b["basis"], b["params"])
    if b["poles"].ok.all():
        old, _ = fit_residues_loop(data.phat, data.rhat, b["poles"], b["sp"], b["basis"],
                                   b["params"])
        assert _rel(res, old) <= TOL
    else:
        oracle = oracle_residues(lin, data.rhat, b["poles"], b["sp"], b["basis"], b["params"])
        assert _rel(res, oracle) <= FIT_ORACLE_TOL


def test_recover_coefficients_match_loop(bundle):
    # The table's two terms of the residue formula a^l = P_l + q_l against the
    # loop.  They cancel: |q_l| reaches 1e3 |a^l| at tau = 0.5 and 2e4 |a^l| at
    # tau = 0.05, so any reordering of the roundoff shows up in a^l at that
    # ratio.  The agreement is measured against the size of the two terms.
    lin, data = _data(bundle, 53)
    b = bundle
    res = oracle_residues_loop(lin, data.rhat, b["poles"], b["sp"], b["basis"], b["params"])
    t = pole_table(b["poles"], b["sp"], b["params"])
    P, q = (residue_term(res, b["poles"], b["sp"], b["basis"], b["params"]),
            t.model_term_ok(data.rhat[..., t.ok]))
    a_old, cond_old = recover_coefficients_loop(res, data.rhat, *_args(b))
    terms = max(np.max(np.abs(q)), np.max(np.abs(P)))
    assert np.max(np.abs(P + q - a_old[t.ok])) <= TOL * terms
    ok = b["poles"].ok
    assert np.all(a_old[~ok] == 0)
    # the table's Mtilde condition numbers on the modes with a pole
    assert np.all(np.isnan(cond_old[~ok]))
    assert _rel(t.mt_cond, cond_old[ok]) <= TOL


def test_image_norm_terms_match_loop(bundle, spec_std):
    lin, data = _data(bundle, 54)
    b = bundle
    res = oracle_residues_loop(lin, data.rhat, b["poles"], b["sp"], b["basis"], b["params"])
    yobs, ymod = image_terms(lin.a, data.rhat, spec_std, *_args(b))
    for new, old in ((ymod, ymod_terms_loop(data.rhat, spec_std, *_args(b))),
                     (yobs, yobs_terms_loop(res, spec_std, *_args(b), M=b["M"]))):
        assert _rel(new, old) <= TOL
    # image_norms sums exactly these terms
    t = pole_table(b["poles"], b["sp"], b["params"])
    norms = image_norms(lin.a, data.rhat, t, spec_std, b["sp"], b["basis"], b["params"])
    assert norms == tuple(float(np.sqrt(t1 + t2)) for t1, t2 in (yobs, ymod))
    rng = np.random.default_rng(55)
    J = b["basis"].J
    q = rng.standard_normal((J, 2)) + 1j * rng.standard_normal((J, 2))
    ok = np.flatnonzero(b["poles"].ok)
    new = _image_terms(q[ok], data.rhat[..., ok], *_pieces(b, spec_std))
    old = ymod_terms_loop(data.rhat, spec_std, *_args(b),
                          pole_values={int(ell): q[ell] for ell in ok})
    assert _rel(new, old) <= TOL


def test_yobs_terms_of_the_pair_match_residue_path(bundle, spec_std):
    # Yobs reads q_l = a^l - Mtilde(p_l)^(-1) rtilde^l(p_l) off the pair; the
    # residue path builds the truth's residues and inverts their formula.  At
    # tau 0.05 mode 2 has no pole, and its residues are zero.
    b = bundle
    lins = [random_linearized(b["basis"], b["M"], 58 + k) for k in range(3)]
    lin = LinearizedInput(*(np.stack([getattr(v, f) for v in lins])
                            for f in ("a", "du")))
    data = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    new = np.stack(image_terms(lin.a, data.rhat, spec_std, *_args(b))[0], axis=-1)
    pole_args = (b["poles"], b["sp"], b["basis"], b["params"])
    path = _image_terms(residue_term(oracle_residues(lin, data.rhat, *pole_args), *pole_args),
                        0.0, *_pieces(b, spec_std))
    assert new.shape == (3, 2) and _rel(new, np.stack(path, axis=-1)) <= TOL
    for k, v in enumerate(lins):
        d = linearized_forward(b["sp"], b["params"], b["basis"], v)
        one = image_terms(v.a, d.rhat, spec_std, *_args(b))[0]
        res = oracle_residues_loop(v, d.rhat, b["poles"], b["sp"], b["basis"], b["params"])
        assert all(isinstance(x, float) for x in one)
        assert _rel(one, yobs_terms_loop(res, spec_std, *_args(b), M=b["M"])) <= TOL
        assert _rel(new[k], one) <= TOL


def _kernel_points(p):
    """Far from the lattice, and on damped poles where c(o) is still finite."""
    return np.array([-0.3 + 2.0j, -2.5 + 0.7j, -4.0 + 5.3j, 0.2 - 1.1j])


def test_interp_kernels_match_scalar_branches(setup_small):
    # the package's kernels times c(o) are the unscaled kernels, and the
    # contraction times c(o) is the one-point transform
    p = setup_small["params"]
    rng = np.random.default_rng(56)
    hat = rng.standard_normal((3, 24)) + 1j * rng.standard_normal((3, 24))
    points = _kernel_points(p)
    kernels = interp_kernels(points, 24, p.omega)
    assert kernels[0].shape == kernels[1].shape == (points.size, 24)
    assert kernels[2].shape == points.shape
    c = (1.0 - np.exp(-points * p.T)) / p.T   # the factor the package's kernels leave out
    for k, (new, old) in enumerate(zip(kernels, interp_kernels_unscaled(points, 24, p.omega,
                                                                         p.T))):
        assert _rel(new * (c[:, None] if k < 2 else c), old) <= TOL
    vals = sources._contract_kernels(hat, 0.4, *kernels)
    for i, o in enumerate(points):
        assert _rel(c[i] * vals[:, i], interp_periodic_scalar(hat, 0.4, o, p.omega, p.T)) <= TOL


@pytest.mark.parametrize("dist", [1e-4, 1e-6, 1e-8])
def test_model_term_near_the_lattice(setup_small, dist):
    # at |o - i m omega| T = dist the kernel 1/(o - i m omega) dominates both
    # Mtilde / c and rtilde / c, and the model term from the package's table
    # equals the one from the unscaled near-lattice formula, where c(o) is
    # about dist / T
    s = setup_small
    p, M = s["params"], s["M"]
    m = np.array([1, 3, 10, M])
    o = 1j * m * p.omega + (dist / p.T) * np.exp(1j * np.array([0.3, 2.0, -1.2, 3.0]))
    pole_set = PoleSet(lambdas=s["basis"].lambdas[:m.size], poles=o, ok=np.ones(m.size, bool))
    rng = np.random.default_rng(59)
    r = rng.standard_normal((3, 2, M, m.size)) + 1j * rng.standard_normal((3, 2, M, m.size))
    new = pole_table(pole_set, s["sp"], p)
    old = pole_table_unscaled(pole_set, s["sp"], p)
    assert _rel(new.model_term_ok(r), old.model_term_ok(r)) <= TOL
    assert _rel(new.mt_cond, old.mt_cond) <= TOL


def test_interp_kernels_do_not_depend_on_company(setup_small):
    # a point's kernels are the same bits alone and in an array with far,
    # damped and near-lattice points
    p = setup_small["params"]
    points = np.append(_kernel_points(p), [3j * p.omega + 1e-7, 5j * p.omega - 1e-12j])
    together = interp_kernels(points, 24, p.omega)
    for i, o in enumerate(points):
        for one, many in zip(interp_kernels(o, 24, p.omega), together):
            assert one.tobytes() == many[i].tobytes()


def test_invert_mtilde_stack(setup_small):
    rng = np.random.default_rng(57)
    mt = rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
    inv = invert_mtilde(mt)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(inv[idx], invert_mtilde(mt[idx]))
    assert np.max(np.abs(inv @ mt - np.eye(2))) <= 1e-12
    mt[2, 1] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(SingularInterpolantError, match=r"stack index \(2, 1\)"):
        invert_mtilde(mt)


def test_pole_table_built_once_per_pole_set(setup_small):
    # a preset builds the table once and passes it down (test_artifacts counts
    # the builds); the table is a function of its inputs, so an equal pole set
    # gives an equal table
    s = setup_small
    t = pole_table(s["poles"], s["sp"], s["params"])
    fresh = build_pole_set(s["basis"].lambdas, s["params"])
    t2 = pole_table(fresh, s["sp"], s["params"])
    assert np.array_equal(t2.mt_inv, t.mt_inv) and np.array_equal(t2.kp, t.kp)
    assert t.kp.shape == (s["poles"].n_ok, s["M"]) and t.mt_inv.shape == (s["poles"].n_ok, 2, 2)


@pytest.mark.parametrize("name", ["interval_roundtrip", "qr_sweep", "smoothing_study"])
def test_one_kernel_evaluation_matches_separate_ones(name):
    # the table's Mtilde inverse and cond, kp and km come from one kernel
    # evaluation at 2M harmonics; its first M columns are the kernels at M,
    # and the table equals the one from psi~ at M and psi^2~ at 2M harmonics,
    # bit for bit, down into the window where c(p) overflows
    sc = load_scenario(SCENARIOS / f"{name}.json")
    basis, params0 = make_basis(sc), make_params(sc)
    sp = make_reference(sc, basis, params0)
    for tau in (params0.tau, 0.5, 0.3, 0.1, 0.05, 0.02, 0.01, 0.006):
        params = params0.with_tau(tau)
        pole_set = build_pole_set(basis.lambdas, params)
        t = pole_table(pole_set, sp, params)
        p = pole_set.poles[t.ok]
        half, full = (interp_kernels(p, n, params.omega) for n in (sp.M, 2 * sp.M))
        for k in range(2):
            assert np.array_equal(full[k][:, :sp.M], half[k])
        assert np.array_equal(full[2], half[2])
        p1 = sources._contract_kernels(sp.psi_hat, 0.0, *half)
        p2 = sources._contract_kernels(sp.psi_sq_hat, sp.psi_sq_dc, *full)
        mt = np.stack([np.stack([p1, p2], axis=-1),
                       np.stack([sp.A * p1, sp.A**2 * p2], axis=-1)], axis=-2)
        assert np.array_equal(t.mt_inv, invert_mtilde(mt))
        assert np.array_equal(t.mt_cond, np.linalg.cond(mt))
        assert np.array_equal(t.kp, half[0]) and np.array_equal(t.km, half[1])


def _resonant_probe(M=24, omega=1.0):
    """The Neumann interval [0, pi] (lambda_j = j^2) at tau = sigma0 beta = 1:
    the characteristic polynomial factors as (beta p + 1)(sigma0 p^2 + lambda_j),
    so the poles sit at i j, on the lattice i m omega wherever j = m omega."""
    raw = small_scenario("stability-probe", M=M, seed=1, draws=5)
    raw["domain"]["robin_gamma"] = [0.0, 0.0]
    raw["params"].update(tau=1.0, beta=1.0, sigma0=1.0, omega=omega)
    raw["source"]["phi_mode"] = 1
    return raw


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("M, omega", [(24, 1.0), (1, 1.5)])
def test_pole_on_the_lattice_raises_resonance_error(tmp_path, M, omega):
    # a pole at i m omega, m <= 2M, would divide the kernels by zero; the
    # table raises the typed error first, also where only m > M is hit (at
    # M = 1 and omega 1.5 the pole 3i sits at m = 2, a harmonic of psi^2 only)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(_resonant_probe(M, omega)))
    sc = load_scenario(path)
    basis, params = make_basis(sc), make_params(sc)
    pole_set = build_pole_set(basis.lambdas, params)
    assert np.flatnonzero(~pole_set.ok).tolist() == [0]
    assert np.max(np.abs(pole_set.poles[1:] - 1j * np.arange(1, basis.J))) <= 1e-13
    with pytest.raises(ResonanceError):
        pole_table(pole_set, make_reference(sc, basis, params), params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resonant_stability_probe_exits_3(tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(_resonant_probe()))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "resonant harmonic symbol" in err and "Traceback" not in err

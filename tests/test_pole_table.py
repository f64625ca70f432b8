"""The per-pole table against the one-pole-at-a-time loops in oracles.py."""

import numpy as np
import pytest

from harmtomo import build_pole_set, invert_mtilde
from harmtomo.errors import SingularInterpolantError
from harmtomo.norms import _image_terms, pole_table, yobs_terms, ymod_terms
from harmtomo.reconstruct import LinearizedInput, linearized_forward, reconstruct
from harmtomo.scenarios import load_scenario, make_basis, make_params, make_reference
from harmtomo.sources import interp_kernels
from conftest import SCENARIOS, random_linearized
from oracles import (fit_residues_loop, interp_periodic, interp_periodic_scalar, oracle_residues,
                     oracle_residues_loop, psi_sq_tilde, psi_tilde, recover_coefficients_loop,
                     residue_term, residues_of, yobs_terms_loop, ymod_terms_loop)

TOL = 1e-13
FIT_ORACLE_TOL = 1e-10  # fit/oracle residues at tau 0.05, where the fit's cond is ~5e6


def _rel(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return float(np.max(np.abs(new - old)) / max(np.max(np.abs(old)), 1e-300))


def _data(b, seed):
    lin = random_linearized(b["basis"], b["M"], seed)
    return lin, linearized_forward(b["ref"], b["params"], b["basis"], lin)


def _args(b):
    return b["sp"], b["poles"], b["basis"], b["params"]


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
    rec = reconstruct(data, b["ref"], b["basis"], b["params"])
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
    P, q = residue_term(res, t, b["basis"], b["params"]), t.model_term_ok(data.rhat[..., t.ok])
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
    for new, old in ((ymod_terms(data.rhat, spec_std, *_args(b)),
                      ymod_terms_loop(data.rhat, spec_std, *_args(b))),
                     (yobs_terms(lin.a, data.rhat, spec_std, *_args(b)),
                      yobs_terms_loop(res, spec_std, *_args(b), M=b["M"]))):
        assert _rel(new, old) <= TOL
    rng = np.random.default_rng(55)
    J = b["basis"].J
    q = rng.standard_normal((J, 2)) + 1j * rng.standard_normal((J, 2))
    ok = np.flatnonzero(b["poles"].ok)
    new = _image_terms(q[ok], data.rhat[..., ok], ok, b["M"], spec_std, b["sp"], b["basis"],
                       b["params"])
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
                            for f in ("a_sigma", "a_eta", "du")))
    data = linearized_forward(b["ref"], b["params"], b["basis"], lin)
    t = pole_table(b["poles"], b["sp"], b["params"])
    new = np.stack(yobs_terms(lin.a, data.rhat, spec_std, *_args(b)), axis=-1)
    path = _image_terms(residue_term(oracle_residues(lin, data.rhat, b["poles"], b["sp"],
                                                     b["basis"], b["params"]), t, b["basis"],
                                     b["params"]),
                        0.0, t.ok, b["M"], spec_std, b["sp"], b["basis"], b["params"])
    assert new.shape == (3, 2) and _rel(new, np.stack(path, axis=-1)) <= TOL
    for k, v in enumerate(lins):
        d = linearized_forward(b["ref"], b["params"], b["basis"], v)
        one = yobs_terms(v.a, d.rhat, spec_std, *_args(b))
        res = oracle_residues_loop(v, d.rhat, b["poles"], b["sp"], b["basis"], b["params"])
        assert all(isinstance(x, float) for x in one)
        assert _rel(one, yobs_terms_loop(res, spec_std, *_args(b), M=b["M"])) <= TOL
        assert _rel(new[k], one) <= TOL


def test_interp_kernels_match_scalar_branches(setup_small):
    p = setup_small["params"]
    rng = np.random.default_rng(56)
    hat = rng.standard_normal((3, 24)) + 1j * rng.standard_normal((3, 24))
    # far from the lattice, on a damped pole, on and next to lattice points, at 0
    points = np.array([-0.3 + 2.0j, -2.5 + 0.7j, 3j * p.omega, 5j * p.omega + 1e-7, 0.0])
    vals = interp_periodic(hat, 0.4, points, p.omega, p.T)
    assert vals.shape == (3, points.size)
    for i, o in enumerate(points):
        ref = interp_periodic_scalar(hat, 0.4, o, p.omega, p.T)
        assert _rel(vals[:, i], ref) <= TOL
        assert _rel(interp_periodic(hat, 0.4, o, p.omega, p.T), ref) <= TOL
    kp, km, k0 = interp_kernels(points, 24, p.omega, p.T)
    assert kp.shape == km.shape == (points.size, 24) and k0.shape == points.shape


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
    s = setup_small
    t = pole_table(s["poles"], s["sp"], s["params"])
    assert pole_table(s["poles"], s["sp"], s["params"]) is t
    assert pole_table(s["poles"], s["sp"], s["params"].with_tau(0.5)) is t  # equal parameters
    fresh = build_pole_set(s["basis"].lambdas, s["params"])
    t2 = pole_table(fresh, s["sp"], s["params"])
    assert t2 is not t
    assert np.array_equal(t2.mt_inv, t.mt_inv) and np.array_equal(t2.kp, t.kp)
    assert t.kp.shape == (s["poles"].n_ok, s["M"]) and t.mt.shape == (s["poles"].n_ok, 2, 2)
    with pytest.raises(ValueError):
        t.mt_inv[0, 0, 0] = 0.0


@pytest.mark.parametrize("name", ["interval_roundtrip", "qr_sweep", "smoothing_study"])
def test_one_kernel_evaluation_matches_separate_ones(name):
    # the table's Mtilde, kp and km come from one kernel evaluation at 2M
    # harmonics; they equal psi~ and psi^2~ evaluated at M and 2M harmonics
    # and the kernels at M bit for bit
    sc = load_scenario(SCENARIOS / f"{name}.json")
    basis, params0 = make_basis(sc), make_params(sc)
    sp = make_reference(sc, basis, params0).source_pair
    for tau in (params0.tau, 0.5, 0.3, 0.1, 0.05, 0.02):
        params = params0.with_tau(tau)
        t = pole_table(build_pole_set(basis.lambdas, params), sp, params)
        p1, p2 = psi_tilde(sp, t.p, params), psi_sq_tilde(sp, t.p, params)
        mt = np.stack([np.stack([p1, p2], axis=-1),
                       np.stack([sp.A * p1, sp.A**2 * p2], axis=-1)], axis=-2)
        kp, km, _ = interp_kernels(t.p, sp.M, params.omega, params.T)
        assert np.array_equal(t.mt, mt)
        assert np.array_equal(t.kp, kp) and np.array_equal(t.km, km)

"""Leading batch axes: a batch of draws in one call equals the stacked
one-draw calls, and a one-draw call keeps its shapes and types."""

import importlib
import json

import numpy as np
import pytest

from harmtomo.norms import _image_terms, image_norms, pole_table, x_norm
from harmtomo.forward import _nonresonant_symbols
from harmtomo.errors import IllConditionedFitError, ResonanceError
from harmtomo.reconstruct import (FitMap, LinearizedInput, build_fit_map, build_fit_maps,
                                  fit_coefficients, linearized_forward, solve_states_from_coeffs)
from harmtomo.scenarios import load_scenario, make_basis, make_true_fields
from conftest import random_linearized, small_scenario
from oracles import (fit_coefficients_dense, image_pieces, image_terms, oracle_residues,
                     recover_coefficients_loop, residue_term, residues_of)

rc = importlib.import_module("harmtomo.reconstruct")   # the package binds the function

B = 5
TOL = 1e-13


def _rel(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return float(np.max(np.abs(new - old)) / max(np.max(np.abs(old)), 1e-300))


def _draws(b, seed):
    """B one-draw pipelines and the same draws stacked along a leading axis."""
    lins = [random_linearized(b["basis"], b["M"], seed + k) for k in range(B)]
    lin = LinearizedInput(a=np.stack([v.a for v in lins]), du=np.stack([v.du for v in lins]))
    return lins, lin


def _args(b):
    return b["sp"], b["poles"], b["basis"], b["params"]


def _pole_args(b):
    return b["poles"], b["sp"], b["basis"], b["params"]


def _fit_args(b):
    return b["sp"], b["basis"], b["params"]


def _image_norms(b, spec, a, rhat):
    t = pole_table(b["poles"], b["sp"], b["params"])
    return image_norms(a, rhat, t, spec, b["sp"], b["basis"], b["params"])


def _stack(fn, items):
    return np.stack([np.asarray(fn(*it)) for it in items])


def test_linearized_forward_and_oracle(bundle):
    b = bundle
    lins, lin = _draws(b, 60)
    one = [linearized_forward(b["sp"], b["params"], b["basis"], v) for v in lins]
    data = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    assert data.rhat.shape == (B, 2, b["M"], b["basis"].J)
    assert one[0].rhat.shape == (2, b["M"], b["basis"].J)
    assert one[0].phat.shape == (2, b["M"], b["basis"].nsigma)
    assert _rel(data.rhat, [d.rhat for d in one]) <= TOL
    assert _rel(data.phat, [d.phat for d in one]) <= TOL
    res = oracle_residues(lin, data.rhat, *_pole_args(b))
    assert _rel(res, [oracle_residues(v, d.rhat, *_pole_args(b)) for v, d in zip(lins, one)]) <= TOL


def test_pole_table_methods_and_residue_term(bundle):
    b = bundle
    lins, lin = _draws(b, 61)
    one = [linearized_forward(b["sp"], b["params"], b["basis"], v) for v in lins]
    data = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    t = pole_table(b["poles"], b["sp"], b["params"])
    for method in (lambda r: t.rtilde_ok(r[..., t.ok]), lambda r: t.model_term_ok(r[..., t.ok])):
        new = method(data.rhat)
        assert new.shape == (B, t.ok.size, 2)
        assert _rel(new, _stack(method, [(d.rhat,) for d in one])) <= TOL
    assert _rel(residues_of(lin.a, data.rhat, *_pole_args(b)),
                _stack(lambda r, a: residues_of(a, r, *_pole_args(b)),
                       [(d.rhat, v.a) for d, v in zip(one, lins)])) <= TOL
    res = oracle_residues(lin, data.rhat, *_pole_args(b))
    assert _rel(residue_term(res, *_pole_args(b)),
                _stack(lambda r: residue_term(r, *_pole_args(b)),
                       [(r,) for r in res])) <= TOL


def test_fit_coefficients_one_svd(bundle, monkeypatch):
    # one factored map serves the batch and every draw, each bit for bit
    # equal to the fit built and applied in one call
    b = bundle
    lins, lin = _draws(b, 62)
    one = [linearized_forward(b["sp"], b["params"], b["basis"], v) for v in lins]
    data = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    fm = build_fit_map(*_fit_args(b), b["M"])
    a, rel = fit_coefficients(fm, data.phat, data.rhat)
    fits = [fit_coefficients(fm, d.phat, d.rhat) for d in one]
    assert len(calls) == 1
    assert isinstance(fm.fit_cond, float)
    assert a.shape == (B, b["basis"].J, 2) and rel.shape == (B,)
    assert _rel(a, [x for x, _ in fits]) <= TOL
    assert np.array_equal(rel, [r for _, r in fits])
    dense, cond, dense_rel = fit_coefficients_dense(data.phat, data.rhat, *_fit_args(b))
    assert cond == fm.fit_cond and np.array_equal(a, dense) and np.array_equal(rel, dense_rel)
    for (x, _), d in zip(fits, one):
        assert np.array_equal(x, fit_coefficients_dense(d.phat, d.rhat, *_fit_args(b))[0])


FIT_TAUS = (0.5, 0.3, 0.2, 0.05)
MAP_ARRAYS = ("sym", "D", "mm", "mm_inv", "trace_matrix", "u", "uh", "sv", "vj")


def _same_map(fm, alone):
    return fm.fit_cond == alone.fit_cond and all(
        np.array_equal(getattr(fm, k), getattr(alone, k)) for k in MAP_ARRAYS)


def test_fit_maps_stacked_over_taus(bundle, monkeypatch):
    # one stacked SVD factors the design at every tau; each map equals the
    # one built at its tau alone and fits as the dense oracle does, bit for bit
    b = bundle
    _, lin = _draws(b, 64)
    data = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    maps = build_fit_maps(*_fit_args(b), b["M"], FIT_TAUS)
    assert len(calls) == 1 and len(maps) == len(FIT_TAUS)
    for tau, fm in zip(FIT_TAUS, maps):
        params = b["params"].with_tau(tau)
        assert _same_map(fm, build_fit_map(b["sp"], b["basis"], params, b["M"]))
        a, rel = fit_coefficients(fm, data.phat, data.rhat)
        dense, cond, dense_rel = fit_coefficients_dense(data.phat, data.rhat, b["sp"],
                                                        b["basis"], params)
        assert cond == fm.fit_cond and np.array_equal(a, dense) and np.array_equal(rel, dense_rel)


def test_fit_maps_fail_per_tau(setup_small, monkeypatch):
    # a tau whose symbol vanishes or whose design is too ill conditioned gets
    # its typed error in place of a map, and the other taus their maps; the
    # one-tau builder raises that error
    b = setup_small
    args = (b["sp"], b["basis"], b["params"], b["M"])
    conds = [fm.fit_cond for fm in build_fit_maps(*args, FIT_TAUS)]
    monkeypatch.setattr(rc, "FIT_COND_LIMIT", (conds[1] + conds[2]) / 2)
    high = 1 if conds[1] > conds[2] else 2
    table = rc.symbols_matrix

    def resonant_at_last(params, lambdas, M, taus=None):
        sym = table(params, lambdas, M, taus)
        if taus is not None:
            sym[np.asarray(taus) == FIT_TAUS[-1], 2, 3] = 0.0
        return sym

    monkeypatch.setattr(rc, "symbols_matrix", resonant_at_last)
    maps = build_fit_maps(*args, FIT_TAUS)
    assert isinstance(maps[-1], ResonanceError) and (maps[-1].m, maps[-1].j) == (3, 3)
    assert isinstance(maps[high], IllConditionedFitError)
    assert maps[high].cond == conds[high]
    for k in {0, 1, 2} - {high}:
        assert isinstance(maps[k], FitMap)
        assert _same_map(maps[k], build_fit_map(*args[:2], b["params"].with_tau(FIT_TAUS[k]),
                                                b["M"]))
    with pytest.raises(IllConditionedFitError):
        build_fit_map(*args[:2], b["params"].with_tau(FIT_TAUS[high]), b["M"])
    with pytest.raises(ResonanceError):
        build_fit_map(*args[:2], b["params"].with_tau(FIT_TAUS[-1]), b["M"])


def test_recover_coefficients_and_states(bundle):
    b = bundle
    lins, lin = _draws(b, 63)
    one = [linearized_forward(b["sp"], b["params"], b["basis"], v) for v in lins]
    data = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    res = oracle_residues(lin, data.rhat, *_pole_args(b))
    t = pole_table(b["poles"], b["sp"], b["params"])
    # the residue formula a^l = P_l + q_l from the table's batched terms
    P, q = residue_term(res, *_pole_args(b)), t.model_term_ok(data.rhat[..., t.ok])
    for k, d in enumerate(one):
        a_k, _ = recover_coefficients_loop(res[k], d.rhat, *_args(b))
        # the two terms cancel, so a agrees to their size
        terms = max(np.max(np.abs(q[k])), np.max(np.abs(P[k])))
        assert a_k.shape == (b["basis"].J, 2)
        assert np.max(np.abs(P[k] + q[k] - a_k[t.ok])) <= TOL * terms
    assert P.shape == q.shape == (B, t.ok.size, 2)
    sym = _nonresonant_symbols(b["params"], b["basis"].lambdas, b["M"])
    states = solve_states_from_coeffs(lin.a, data.rhat, sym, b["sp"].mm)
    assert _rel(states, [solve_states_from_coeffs(v.a, d.rhat, sym, b["sp"].mm)
                         for v, d in zip(lins, one)]) <= TOL
    assert _rel(states, lin.du) <= 1e-12


def test_norms_and_terms(bundle, spec_std):
    b = bundle
    lins, lin = _draws(b, 64)
    one = [linearized_forward(b["sp"], b["params"], b["basis"], v) for v in lins]
    data = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    lam, omega = b["basis"].lambdas, b["params"].omega
    rng = np.random.default_rng(65)
    q = rng.standard_normal((B, b["basis"].J, 2)) + 1j * rng.standard_normal((B, b["basis"].J, 2))
    ok = np.flatnonzero(b["poles"].ok)

    def q_terms(qk, rhat):
        return _image_terms(qk[..., ok, :], rhat[..., ok],
                            *image_pieces(spec_std, b["sp"], b["basis"], b["params"], ok, b["M"]))
    cases = [
        (x_norm(lin.a, lin.du, lam, omega, spec_std),
         [x_norm(v.a, v.du, lam, omega, spec_std) for v in lins]),
        (np.stack(_image_norms(b, spec_std, lin.a, data.rhat), axis=-1),
         [_image_norms(b, spec_std, v.a, d.rhat) for v, d in zip(lins, one)]),
        (np.moveaxis(np.array(image_terms(lin.a, data.rhat, spec_std, *_args(b))), -1, 0),
         [image_terms(v.a, d.rhat, spec_std, *_args(b)) for v, d in zip(lins, one)]),
        (np.stack(q_terms(q, data.rhat), axis=-1),
         [q_terms(qk, d.rhat) for d, qk in zip(one, q)]),
    ]
    for new, old in cases:
        assert new.shape[0] == B
        assert _rel(new, old) <= TOL
    for _, old in cases:
        assert all(isinstance(v, float) for v in np.ravel(np.array(old, dtype=object)))


def test_two_batch_axes(setup_small, spec_std):
    b = setup_small
    _, lin = _draws(b, 66)
    # a (2, B) grid of draws: the batch and its negation
    grid = LinearizedInput(*(np.stack([v, -v]) for v in (lin.a, lin.du)))
    flat = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    data = linearized_forward(b["sp"], b["params"], b["basis"], grid)
    res = oracle_residues(grid, data.rhat, *_pole_args(b))
    a, _ = fit_coefficients(build_fit_map(*_fit_args(b), b["M"]), data.phat, data.rhat)
    assert a.shape == (2, B, b["basis"].J, 2)
    assert np.max(np.abs(a - grid.a)) <= 1e-10
    assert _rel(res[1], -oracle_residues(lin, flat.rhat, *_pole_args(b))) <= TOL
    yo, ym = _image_norms(b, spec_std, grid.a, data.rhat)
    xv = x_norm(grid.a, grid.du, b["basis"].lambdas, b["params"].omega, spec_std)
    assert yo.shape == ym.shape == xv.shape == (2, B)
    assert _rel(xv[1], xv[0]) <= TOL and np.all(yo + ym - xv >= -1e-10)


@pytest.mark.parametrize("draws", [1, 0])
def test_single_and_empty_batch(setup_small, spec_std, draws):
    b = setup_small
    J, M = b["basis"].J, b["M"]
    lin = LinearizedInput(a=np.ones((draws, J, 2)), du=np.ones((draws, 2, M, J), dtype=complex))
    data = linearized_forward(b["sp"], b["params"], b["basis"], lin)
    res = oracle_residues(lin, data.rhat, *_pole_args(b))
    assert res.shape == (draws, J, 2, b["basis"].nsigma)
    for v in (x_norm(lin.a, lin.du, b["basis"].lambdas, b["params"].omega, spec_std),
              *_image_norms(b, spec_std, lin.a, data.rhat)):
        assert isinstance(v, np.ndarray) and v.shape == (draws,)


def _truth_scenario(tmp_path, true_fields):
    """A stability-probe scenario at M = 12 with the given truth, and its basis."""
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(small_scenario("stability-probe", M=12, true_fields=true_fields)))
    sc = load_scenario(path)
    return sc, make_basis(sc)


@pytest.mark.parametrize("true_fields", [
    {"kind": "random_low_mode", "du_band": 5},
    {"kind": "low_mode", "sigma_modes": [[1, -0.5]], "eta_modes": [[3, 0.25]], "du_scale": 2.0}])
def test_true_fields_batch_equals_successive_draws(tmp_path, true_fields):
    sc, basis = _truth_scenario(tmp_path, true_fields)
    rng = np.random.default_rng(11)
    singles = [make_true_fields(sc, basis, rng) for _ in range(B)]
    rng_batch = np.random.default_rng(11)
    batch = make_true_fields(sc, basis, rng_batch, draws=B)
    for name in ("a", "du"):
        assert np.array_equal(getattr(batch, name), np.stack([getattr(t, name) for t in singles]))
    assert singles[0].du.shape == (2, 12, basis.J) and batch.du.shape == (B, 2, 12, basis.J)
    # the generator ends where the single draws left it
    assert rng_batch.bit_generator.state == rng.bit_generator.state


def test_true_fields_draw_order(tmp_path):
    sc, basis = _truth_scenario(tmp_path, {"kind": "random_low_mode", "cutoff": 3})
    truth = make_true_fields(sc, basis, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    c = 3
    a_sigma = rng.standard_normal(c) / (1.0 + np.arange(c))
    a_eta = rng.standard_normal(c) / (1.0 + np.arange(c))
    re, im = rng.standard_normal((2, 12, basis.J)), rng.standard_normal((2, 12, basis.J))
    decay = 1.0 / ((1.0 + np.arange(1, 13))[:, None] * (1.0 + basis.lambdas)[None, :])
    assert np.array_equal(truth.a[:, 0], np.pad(a_sigma, (0, basis.J - c)))
    assert np.array_equal(truth.a[:, 1], np.pad(a_eta, (0, basis.J - c)))
    assert np.array_equal(truth.du, decay * (re + 1j * im))


def test_low_mode_truth_sets_each_channel_and_mode(tmp_path):
    # sigma_modes fill channel 0 of the pair a (J, 2), eta_modes channel 1
    sc, basis = _truth_scenario(tmp_path, {"kind": "low_mode", "sigma_modes": [[1, -0.5]],
                                           "eta_modes": [[3, 0.25]]})
    truth = make_true_fields(sc, basis, np.random.default_rng(5))
    expected = np.zeros((basis.J, 2))
    expected[1, 0], expected[3, 1] = -0.5, 0.25
    assert np.array_equal(truth.a, expected)

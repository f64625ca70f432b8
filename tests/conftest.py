import json
from pathlib import Path

import numpy as np
import pytest

from harmtomo import (DomainSpec, ModelParams, NormSpec, amplitude_modulate, build_basis,
                      build_pole_set, design_delta_pulse)
from harmtomo.runner import run_preset
from harmtomo.scenarios import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="session")
def basis8():
    return build_basis(DomainSpec("interval", (np.pi,), (1.0, 1.0), (0.0,)), 8)


@pytest.fixture(scope="session")
def basis16():
    return build_basis(DomainSpec("interval", (np.pi,), (1.0, 1.0), (0.0,)), 16)


@pytest.fixture(scope="session")
def params_std():
    # tau = 0.5, unit slowness and attenuation, half-unit frequency
    return ModelParams.create(tau=0.5, beta=1.0, sigma0=1.0, omega=0.5, T0=np.pi / 2, A=2.0)


@pytest.fixture(scope="session")
def spec_std():
    return NormSpec(s=1.0, orti_check=0.5)


@pytest.fixture(scope="session")
def setup_small(basis8, params_std):
    """Small pipeline bundle: 8 modes, 24 harmonics, reference mode 0."""
    M = 24
    sp = amplitude_modulate(design_delta_pulse(params_std, M, 0.08, amplitude=3.0), params_std.A)
    poles = build_pole_set(basis8.lambdas, params_std)
    return dict(basis=basis8, params=params_std, M=M, sp=sp, poles=poles)


@pytest.fixture(scope="session")
def setup_big(basis16, params_std):
    """Acceptance-scale bundle: 16 modes, 64 harmonics, reference mode 0."""
    M = 64
    sp = amplitude_modulate(design_delta_pulse(params_std, M, 0.04, amplitude=6.0), params_std.A)
    poles = build_pole_set(basis16.lambdas, params_std)
    return dict(basis=basis16, params=params_std, M=M, sp=sp, poles=poles)


GOLDEN = (1 + 5**0.5) / 2


def _bundle(basis, params, M=24):
    sp = amplitude_modulate(design_delta_pulse(params, M, 0.08, amplitude=3.0), params.A)
    return dict(basis=basis, params=params, M=M, sp=sp, poles=build_pole_set(basis.lambdas, params))


@pytest.fixture(scope="module", params=["interval", "rectangle", "interval-tau-0.05"])
def bundle(request, setup_small):
    """The per-pole setups: the small interval, an incommensurate rectangle
    and the small interval at tau 0.05, where some modes have no pole."""
    if request.param == "interval":
        return setup_small
    if request.param == "rectangle":
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                       ((1.0, 1.0), (1.0, 1.0)), "side:y=0"), 6)
        params = ModelParams.create(tau=0.5, beta=1.0, sigma0=1.0, omega=0.5, T0=np.pi, A=2.0)
        return _bundle(basis, params)
    b = _bundle(setup_small["basis"], setup_small["params"].with_tau(0.05))
    assert b["poles"].n_ok < b["basis"].J   # some modes have no pole
    return b


def random_linearized(basis, M, seed, a_scale=1.0, du_scale=1.0, du_band=None, decay=True):
    from harmtomo.reconstruct import LinearizedInput

    rng = np.random.default_rng(seed)
    J = basis.J
    a_sigma = a_scale * rng.standard_normal(J)
    a_eta = a_scale * rng.standard_normal(J)
    du = rng.standard_normal((2, M, J)) + 1j * rng.standard_normal((2, M, J))
    if decay:
        du /= (1.0 + np.arange(1, M + 1))[:, None] * (1.0 + basis.lambdas)[None, :]
    du *= du_scale
    if du_band is not None:
        du[:, du_band:, :] = 0.0
    return LinearizedInput(a=np.stack([a_sigma, a_eta], axis=-1), du=du)


def small_scenario(preset, J=8, M=16, base="interval_roundtrip", **top):
    """A shipped scenario as raw JSON, run as ``preset`` at truncation (J, M)."""
    raw = json.loads((SCENARIOS / f"{base}.json").read_text())
    raw.update(preset=preset, truncation={"J": J, "M": M}, **top)
    return raw


def run_scenario(tmp_path, raw, name="run"):
    """Run a raw scenario the way ``harmtomo run`` does; returns (out_dir, scenario)."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    sc = load_scenario(path)
    out = tmp_path / name
    run_preset(sc, out_dir=str(out))
    return out, sc

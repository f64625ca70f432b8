"""Scenario files: JSON descriptions of one experiment run.

One file is one run.  Physical parameters carry no implicit defaults; every
scalar the model depends on must be written out.  Structural settings
(grids, tolerances, output naming) default sensibly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .eigenbasis import DomainSpec, EigenBasis, build_interval_basis, build_rectangle_basis
from .errors import ScenarioValidationError
from .fields import ModelParams, NormSpec
from .forward import symbols_matrix
from .reconstruct import LinearizedInput
from .sources import ReferenceState, amplitude_modulate, build_reference_state, design_delta_pulse

PRESETS = ("basis-report", "forward-solve", "pole-report", "linearized-roundtrip",
           "stability-probe", "qr-sweep", "smoothing-study")

RESIDUE_MODES = ("oracle", "fit")

REQUIRED_PARAM_KEYS = ("tau", "beta", "sigma0", "omega", "T0", "A")

QUASIREV_DEFAULTS = {"tau0": 0.0, "tau_min": 0.1, "tau_max": 0.5, "grid_ratio": 2.0**0.25,
                     "tolerance": 0.1}


@dataclass(frozen=True)
class Scenario:
    """Full description of one run, as parsed from a scenario file."""

    name: str
    preset: str
    seed: int
    output_dir: str
    domain: dict
    params: dict
    norms: dict
    J: int
    M: int
    source: dict
    true_fields: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    quasirev: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def load_scenario(path) -> Scenario:
    with open(path) as f:
        raw = json.load(f)
    try:
        trunc = raw["truncation"]
        return Scenario(
            name=raw["name"],
            preset=raw["preset"],
            seed=int(raw["seed"]),
            output_dir=raw.get("output_dir", "out"),
            domain=raw["domain"],
            params=raw["params"],
            norms=raw["norms"],
            J=int(trunc["J"]),
            M=int(trunc["M"]),
            source=raw["source"],
            true_fields=raw.get("true_fields", {}),
            noise=raw.get("noise", {}),
            quasirev=raw.get("quasirev", {}),
            raw=raw,
        )
    except KeyError as exc:
        raise ScenarioValidationError([f"missing required scenario key {exc}"]) from exc


def scenario_hash(sc: Scenario) -> str:
    canon = json.dumps(sc.raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()[:12]


def make_params(sc: Scenario) -> ModelParams:
    p = sc.params
    missing = [k for k in REQUIRED_PARAM_KEYS if k not in p]
    if missing:
        raise ScenarioValidationError([f"physical parameter {k!r} must be explicit" for k in missing])
    return ModelParams.create(tau=p["tau"], beta=p["beta"], sigma0=p["sigma0"],
                              omega=p["omega"], T0=p["T0"], A=p["A"])


def quasirev_settings(sc: Scenario) -> dict:
    """The scenario's quasirev block with every unset key at its default."""
    return {**QUASIREV_DEFAULTS, **sc.quasirev}


def make_norm_spec(sc: Scenario) -> NormSpec:
    return NormSpec(s=sc.norms["s"], orti_check=sc.norms["orti_check"])


def make_basis(sc: Scenario) -> EigenBasis:
    d = sc.domain
    if d["kind"] == "interval":
        return build_interval_basis(d["lengths"][0], tuple(d["robin_gamma"]), sc.J,
                                    sigma_points=tuple(d["sigma_points"]))
    sig = d["sigma_points"]
    if not isinstance(sig, str):
        sig = tuple((float(a), float(b)) for a, b in sig)
    gx, gy = d["robin_gamma"]
    return build_rectangle_basis(d["lengths"][0], d["lengths"][1], (tuple(gx), tuple(gy)),
                                 sc.J, sigma_points=sig)


def make_reference(sc: Scenario, basis: EigenBasis, params: ModelParams) -> ReferenceState:
    src = sc.source
    pulse = design_delta_pulse(params, sc.M, src["pulse_width"],
                               amplitude=src.get("amplitude", 1.0))
    pair = amplitude_modulate(pulse, params.A)
    return build_reference_state(basis, int(src["phi_mode"]), pair, params,
                                 eta0=src.get("eta0", 0.0))


def make_true_fields(sc: Scenario, basis: EigenBasis, rng: np.random.Generator) -> LinearizedInput:
    """Synthetic truth in the retained spectral span.

    kinds: "low_mode" takes explicit (mode, value) lists for both channels;
    "random_low_mode" draws decaying random coefficients up to a cutoff.
    The state perturbation is a decaying random draw scaled by du_scale.
    """
    cfg = sc.true_fields
    J, M = basis.J, sc.M
    a_sigma = np.zeros(J)
    a_eta = np.zeros(J)
    kind = cfg.get("kind", "random_low_mode")
    if kind == "low_mode":
        for j, val in cfg.get("sigma_modes", []):
            a_sigma[int(j)] = float(val)
        for j, val in cfg.get("eta_modes", []):
            a_eta[int(j)] = float(val)
    elif kind == "random_low_mode":
        cutoff = min(int(cfg.get("cutoff", max(2, J // 2))), J)
        a_sigma[:cutoff] = rng.standard_normal(cutoff) / (1.0 + np.arange(cutoff))
        a_eta[:cutoff] = rng.standard_normal(cutoff) / (1.0 + np.arange(cutoff))
    else:
        raise ScenarioValidationError([f"unknown true_fields kind {kind!r}"])
    du_scale = float(cfg.get("du_scale", 1.0))
    du_band = int(cfg.get("du_band", M))
    decay = 1.0 / ((1.0 + np.arange(1, M + 1))[:, None] * (1.0 + basis.lambdas)[None, :])
    du = du_scale * decay * (rng.standard_normal((2, M, J)) + 1j * rng.standard_normal((2, M, J)))
    du[:, du_band:, :] = 0.0
    return LinearizedInput(a_sigma=a_sigma, a_eta=a_eta, du=du)


def validate_scenario(sc: Scenario) -> list[str]:
    """Invariant checks without heavy computation; returns violation messages."""
    out: list[str] = []
    if sc.preset not in PRESETS:
        out.append(f"unknown preset {sc.preset!r}; expected one of {PRESETS}")
    if sc.raw.get("residue_mode", "oracle") not in RESIDUE_MODES:
        out.append(f"unknown residue_mode {sc.raw['residue_mode']!r}; expected one of {RESIDUE_MODES}")
    p = sc.params
    for k in REQUIRED_PARAM_KEYS:
        if k not in p:
            out.append(f"physical parameter {k!r} must be explicit")
    if out:
        return out
    try:
        params = make_params(sc)
    except ValueError as exc:
        out.append(f"model parameters invalid: {exc}")
        params = None
    # ModelParams.create derives T from omega, so a written-out T is checked here
    if "T" in p and abs(p["T"] * p["omega"] - 2.0 * np.pi) > 1e-14 * 2.0 * np.pi:
        out.append("period inconsistent: T*omega must equal 2*pi")
    try:
        spec = make_norm_spec(sc)
    except (KeyError, ValueError) as exc:
        out.append(f"norm spec invalid: {exc}")
        spec = None
    if sc.J < 1 or sc.M < 2:
        out.append("need J >= 1 and M >= 2")
    d = sc.domain
    if d.get("kind") not in ("interval", "rectangle"):
        out.append("domain kind must be interval or rectangle")
    else:
        try:
            DomainSpec(d["kind"], tuple(d["lengths"]),
                       tuple(d["robin_gamma"]) if d["kind"] == "interval"
                       else (tuple(d["robin_gamma"][0]), tuple(d["robin_gamma"][1])),
                       d["sigma_points"] if isinstance(d["sigma_points"], str)
                       else tuple(tuple(q) if isinstance(q, (list, tuple)) else q
                                  for q in d["sigma_points"]))
        except ValueError as exc:
            out.append(f"domain invalid: {exc}")
    src = sc.source
    if "phi_mode" in src and not (0 <= int(src["phi_mode"]) < sc.J):
        out.append("reference mode index outside truncation")
    if "pulse_width" in src and params is not None:
        w, T0, T = src["pulse_width"], params.T0, params.T
        if w <= 0:
            out.append("pulse width must be positive")
        elif T0 < T and w > min(T0, T - T0):
            out.append("pulse width pushes the bump outside the period")
        elif T0 >= T and w >= T / 2:
            out.append("pulse width too large for a period-end bump")
    tf = sc.true_fields
    for key in ("sigma_modes", "eta_modes"):
        for j, _ in tf.get(key, []):
            if not (0 <= int(j) < sc.J):
                out.append(f"{key} index {j} outside truncation")
    if sc.quasirev or sc.preset == "qr-sweep":
        qr = quasirev_settings(sc)
        if qr["tau0"] == 0.0:
            if params is not None and abs(params.T0 - params.T) > 1e-12 * params.T:
                out.append("quasi-reversibility with tau0 = 0 needs T0 = T")
            if spec is not None and spec.orti_check >= 1.0:
                out.append("quasi-reversibility with tau0 = 0 needs orti_check < 1")
        if qr["tau_max"] > p["sigma0"] * p["beta"]:
            out.append(f"tau_max {qr['tau_max']!r} above sigma0*beta leaves the admissible range")
    return out


def min_symbol_magnitude(sc: Scenario, basis: EigenBasis, params: ModelParams) -> float:
    """Smallest harmonic symbol magnitude, the nonresonance margin."""
    return float(np.min(np.abs(symbols_matrix(params, basis.lambdas, sc.M))))

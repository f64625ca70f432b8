"""Scenario files: JSON descriptions of one experiment run.

One file is one run.  Physical parameters carry no implicit defaults; every
scalar the model depends on must be written out.  Structural settings
(grids, tolerances, output naming) default sensibly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import quasirev
from .eigenbasis import DomainSpec, EigenBasis, build_interval_basis, build_rectangle_basis
from .errors import HarmtomoError, ScenarioValidationError
from .fields import ModelParams, NormSpec
from .forward import symbols_matrix
from .reconstruct import LinearizedInput
from .sources import (ReferenceState, amplitude_modulate, build_reference_state,
                      check_pulse_support, check_reference_mode, design_delta_pulse)

PRESETS = ("basis-report", "forward-solve", "pole-report", "linearized-roundtrip",
           "stability-probe", "qr-sweep", "smoothing-study")

TRUTH_KINDS = ("low_mode", "random_low_mode")

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

    @property
    def draws(self) -> int:
        n = _integer(self.raw.get("draws", 200), "draws")
        if n < 0:
            raise ScenarioValidationError([f"draws {n!r} must be nonnegative"])
        return n


def _integer(value, what: str) -> int:
    """A scenario entry that must be an integer (not a bool), as an int."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ScenarioValidationError([f"{what} {value!r} must be an integer"])
    return int(value)


def _object(value, what: str) -> dict:
    """A scenario entry that must be a JSON object."""
    if not isinstance(value, dict):
        raise ScenarioValidationError(
            [f"{what} must be a JSON object, not {type(value).__name__}"])
    return value


def load_scenario(path) -> Scenario:
    """Parse a scenario file.  A path that cannot be read, a file that is not
    a JSON object with the required keys, whose blocks are not objects, or
    whose seed, J or M is not an integer raises ScenarioValidationError."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:  # missing, a directory, or not readable
        raise ScenarioValidationError([f"cannot read scenario file: {exc}"]) from exc
    except ValueError as exc:  # not JSON, or not text at all
        raise ScenarioValidationError([f"scenario file is not valid JSON: {exc}"]) from exc
    _object(raw, "scenario")
    try:
        trunc = _object(raw["truncation"], "truncation")
        return Scenario(
            name=raw["name"],
            preset=raw["preset"],
            seed=_integer(raw["seed"], "seed"),
            output_dir=raw.get("output_dir", "out"),
            domain=_object(raw["domain"], "domain"),
            params=_object(raw["params"], "params"),
            norms=_object(raw["norms"], "norms"),
            J=_integer(trunc["J"], "truncation.J"),
            M=_integer(trunc["M"], "truncation.M"),
            source=_object(raw["source"], "source"),
            true_fields=_object(raw.get("true_fields", {}), "true_fields"),
            noise=_object(raw.get("noise", {}), "noise"),
            quasirev=_object(raw.get("quasirev", {}), "quasirev"),
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


def noise_levels(sc: Scenario) -> list[float]:
    """The scenario's noise levels delta, largest first."""
    deltas = sorted(map(float, sc.noise.get("delta_list", [1e-2, 1e-3, 1e-4])), reverse=True)
    quasirev.check_noise_levels(deltas)
    return deltas


def target_cutoff(sc: Scenario) -> int:
    """Modes 0..cutoff-1 carry the smoothing study's exact coefficients."""
    cutoff = _integer(sc.raw.get("target_cutoff", max(2, sc.J // 3)), "target_cutoff")
    if not 1 <= cutoff <= sc.J:
        raise ScenarioValidationError([f"target_cutoff {cutoff} outside 1..J = 1..{sc.J}"])
    return cutoff


def make_norm_spec(sc: Scenario) -> NormSpec:
    return NormSpec(s=sc.norms["s"], orti_check=sc.norms["orti_check"])


def _floats(x):
    """A JSON number or list as a float or nested tuples of floats."""
    return tuple(map(_floats, x)) if isinstance(x, (list, tuple)) else float(x)


def make_domain(sc: Scenario) -> DomainSpec:
    """The domain block as a DomainSpec; sigma_points may be the string form."""
    d = sc.domain
    sig = d["sigma_points"]
    return DomainSpec(d["kind"], _floats(d["lengths"]), _floats(d["robin_gamma"]),
                      sig if isinstance(sig, str) else _floats(sig))


def make_basis(sc: Scenario) -> EigenBasis:
    dom = make_domain(sc)
    if dom.kind == "interval":
        return build_interval_basis(dom.lengths[0], dom.robin_gamma, sc.J,
                                    sigma_points=dom.sigma_points)
    return build_rectangle_basis(*dom.lengths, dom.robin_gamma, sc.J,
                                 sigma_points=dom.sigma_points)


def source_settings(sc: Scenario) -> tuple[float, float, int]:
    """The pulse width and amplitude and the reference mode (phi_mode) of the
    source block; width and mode must be explicit, and eta0 zero if given."""
    src = sc.source
    bad = [f"source.{k} must be explicit" for k in ("pulse_width", "phi_mode") if k not in src]
    if src.get("eta0", 0.0) != 0.0:
        bad.append(f"source.eta0 {src['eta0']!r} is not supported; only the eta0 = 0 "
                   "reference state is implemented")
    if bad:
        raise ScenarioValidationError(bad)
    mode = _integer(src["phi_mode"], "source.phi_mode")
    if not 0 <= mode < sc.J:
        raise ScenarioValidationError(["reference mode index outside truncation"])
    return float(src["pulse_width"]), float(src.get("amplitude", 1.0)), mode


def _finite(value, what: str) -> float:
    """A scenario entry that must be a finite number, as a float."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ScenarioValidationError([f"{what} {value!r} must be a finite number"])
    return float(value)


def forward_settings(sc: Scenario) -> tuple[float, float]:
    """The forward-solve preset's sigma perturbation size (sigma_perturbation)
    and constant nonlinearity (source.eta_forward)."""
    return (_finite(sc.raw.get("sigma_perturbation", 0.05), "sigma_perturbation"),
            _finite(sc.source.get("eta_forward", 1e-3), "source.eta_forward"))


def make_reference(sc: Scenario, basis: EigenBasis, params: ModelParams) -> ReferenceState:
    width, amplitude, mode = source_settings(sc)
    pulse = design_delta_pulse(params, sc.M, width, amplitude=amplitude)
    pair = amplitude_modulate(pulse, params.A)
    return build_reference_state(basis, mode, pair)


def truth_kind(sc: Scenario) -> str:
    kind = sc.true_fields.get("kind", "random_low_mode")
    if kind not in TRUTH_KINDS:
        raise ScenarioValidationError(
            [f"unknown true_fields kind {kind!r}; expected one of {TRUTH_KINDS}"])
    return kind


def true_field_settings(sc: Scenario) -> tuple[int, float, int, list[tuple[int, int, float]]]:
    """The true_fields block: the random coefficients' cutoff (0 for
    low_mode), du_scale, du_band, and the (channel, mode, value) entries of
    sigma_modes (channel 0) and eta_modes (channel 1)."""
    cfg = sc.true_fields
    cutoff = 0
    if truth_kind(sc) == "random_low_mode":
        cutoff = min(_integer(cfg.get("cutoff", max(2, sc.J // 2)), "true_fields.cutoff"), sc.J)
    modes = []
    for c, key in enumerate(("sigma_modes", "eta_modes")):
        for j, val in cfg.get(key, []):
            j = _integer(j, f"{key} index")
            if not 0 <= j < sc.J:
                raise ScenarioValidationError([f"{key} index {j} outside truncation"])
            modes.append((c, j, float(val)))
    return (cutoff, float(cfg.get("du_scale", 1.0)),
            _integer(cfg.get("du_band", sc.M), "true_fields.du_band"), modes)


def make_true_fields(sc: Scenario, basis: EigenBasis, rng: np.random.Generator,
                     draws: int | None = None) -> LinearizedInput:
    """Synthetic truth in the retained spectral span.

    kinds: "low_mode" takes explicit (mode, value) lists for both channels;
    "random_low_mode" draws decaying random coefficients up to a cutoff.
    The state perturbation is a decaying random draw scaled by du_scale.

    A truth takes its normals from the generator in the order a_sigma, a_eta,
    real and imaginary part of du.  With `draws`, that many truths come
    stacked on a leading batch axis from one generator call; they equal
    `draws` successive calls without it.
    """
    J, M = basis.J, sc.M
    batch = () if draws is None else (int(draws),)
    cutoff, du_scale, du_band, modes = true_field_settings(sc)
    z_a, z_du = np.split(rng.standard_normal(batch + (2 * cutoff + 4 * M * J,)), [2 * cutoff],
                         axis=-1)
    a = np.zeros(batch + (2, J))
    a[..., :cutoff] = z_a.reshape(batch + (2, cutoff)) / (1.0 + np.arange(cutoff))
    if truth_kind(sc) == "low_mode":
        for c, j, val in modes:
            a[..., c, j] = val
    decay = 1.0 / ((1.0 + np.arange(1, M + 1))[:, None] * (1.0 + basis.lambdas)[None, :])
    re, im = np.moveaxis(z_du.reshape(batch + (2, 2, M, J)), -4, 0)
    du = du_scale * decay * (re + 1j * im)
    du[..., du_band:, :] = 0.0
    return LinearizedInput(a_sigma=a[..., 0, :], a_eta=a[..., 1, :], du=du)


def _collect(out: list[str], label: str, check, *args):
    """check(*args), or None with its messages appended to out."""
    try:
        return check(*args)
    except ScenarioValidationError as exc:
        out.extend(exc.violations)
    except (HarmtomoError, KeyError, TypeError, ValueError) as exc:
        out.append(f"{label}: {exc}")
    return None


def validate_scenario(sc: Scenario) -> list[str]:
    """Violation messages of every rule the run checks, without heavy
    computation.  A rule lives in the function the run calls for its part of
    the scenario; this calls those and states only the rules no step checks."""
    out: list[str] = []
    if sc.preset not in PRESETS:
        out.append(f"unknown preset {sc.preset!r}; expected one of {PRESETS}")
    mode = sc.raw.get("residue_mode", "fit")
    if mode != "fit":
        out.append(f"residue_mode {mode!r} is not supported: the oracle mode was removed and "
                   "every run fits the traces; omit the key or set it to \"fit\"")
    _collect(out, "draws", lambda: sc.draws)
    try:
        params = make_params(sc)
    except ScenarioValidationError as exc:
        return out + exc.violations
    except ValueError as exc:
        out.append(f"model parameters invalid: {exc}")
        params = None
    p = sc.params
    # ModelParams.create derives T from omega, so a written-out T is checked here
    if "T" in p and abs(p["T"] * p["omega"] - 2.0 * np.pi) > 1e-14 * 2.0 * np.pi:
        out.append("period inconsistent: T*omega must equal 2*pi")
    spec = _collect(out, "norm spec invalid", make_norm_spec, sc)
    if sc.J < 1 or sc.M < 2:
        out.append("need J >= 1 and M >= 2")
    domain = _collect(out, "domain invalid", make_domain, sc)
    source = _collect(out, "source", source_settings, sc)
    if domain is not None and source is not None:
        _collect(out, "source.phi_mode", check_reference_mode, domain, source[2])
    if source is not None and params is not None:
        _collect(out, "source.pulse_width", check_pulse_support, source[0], params.T0, params.T)
    _collect(out, "true_fields", true_field_settings, sc)
    _collect(out, "forward-solve", forward_settings, sc)
    _collect(out, "noise.delta_list", noise_levels, sc)
    if "target_cutoff" in sc.raw or sc.preset == "smoothing-study":
        _collect(out, "target_cutoff", target_cutoff, sc)
    if (sc.quasirev or sc.preset == "qr-sweep") and params is not None and spec is not None:
        qr = quasirev_settings(sc)
        _collect(out, "quasirev schedule", quasirev.check_schedule, qr["tau0"], qr["tau_min"],
                 qr["tau_max"], qr["grid_ratio"], params.sigma0, params.beta, params.T,
                 params.T0, spec.orti_check)
    return out


def min_symbol_magnitude(sc: Scenario, basis: EigenBasis, params: ModelParams) -> float:
    """Smallest harmonic symbol magnitude, the nonresonance margin."""
    return float(np.min(np.abs(symbols_matrix(params, basis.lambdas, sc.M))))

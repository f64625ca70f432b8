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
from .eigenbasis import DomainSpec, EigenBasis, build_basis, trace_point_count
from .errors import HarmtomoError, ScenarioValidationError
from .fields import ModelParams, NormSpec
from .forward import symbols_matrix
from .reconstruct import LinearizedInput, check_fit_determined
from .sources import (SourcePair, amplitude_modulate, check_pulse_support, check_reference_mode,
                      design_delta_pulse)

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
        if n < 1:
            raise ScenarioValidationError([f"draws {n!r} must be at least 1"])
        return n


def _integer(value, what: str) -> int:
    """A scenario entry that must be an integer (not a bool), as an int."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ScenarioValidationError([f"{what} {value!r} must be an integer"])
    return int(value)


def check_seed(seed: int, preset: str) -> None:
    """The rule for the seed a run uses, the file's or its override: it is
    nonnegative, and at least 1 for a qr-sweep, whose pilot draws its noise
    with seed - 1 (row i draws with seed + i)."""
    if seed < 0:
        raise ScenarioValidationError([f"seed {seed} must be nonnegative"])
    if preset == "qr-sweep" and seed < 1:
        raise ScenarioValidationError(
            [f"seed {seed}: the qr-sweep's pilot draws its noise with seed - 1 = {seed - 1}, "
             "so a qr-sweep needs a seed of at least 1"])


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
    """The params block as ModelParams: every key of REQUIRED_PARAM_KEYS
    explicit and a finite number, and a written-out T one too."""
    p = sc.params
    missing = [k for k in REQUIRED_PARAM_KEYS if k not in p]
    if missing:
        raise ScenarioValidationError([f"physical parameter {k!r} must be explicit" for k in missing])
    if "T" in p:
        _finite(p["T"], "params.T")
    return ModelParams.create(**{k: _finite(p[k], f"params.{k}") for k in REQUIRED_PARAM_KEYS})


def quasirev_settings(sc: Scenario) -> dict:
    """The scenario's quasirev block with every unset key at its default,
    each a finite number."""
    return {k: _finite(sc.quasirev.get(k, v), f"quasirev.{k}")
            for k, v in QUASIREV_DEFAULTS.items()}


def noise_levels(sc: Scenario) -> list[float]:
    """The scenario's noise levels delta, largest first; at least one."""
    deltas = sorted((_finite(d, "noise.delta_list entry")
                     for d in sc.noise.get("delta_list", [1e-2, 1e-3, 1e-4])), reverse=True)
    if not deltas:
        raise ScenarioValidationError(["noise.delta_list must hold at least one level"])
    quasirev.check_noise_levels(deltas)
    return deltas


def target_cutoff(sc: Scenario) -> int:
    """Modes 0..cutoff-1 carry the smoothing study's exact coefficients."""
    cutoff = _integer(sc.raw.get("target_cutoff", max(2, sc.J // 3)), "target_cutoff")
    if not 1 <= cutoff <= sc.J:
        raise ScenarioValidationError([f"target_cutoff {cutoff} outside 1..J = 1..{sc.J}"])
    return cutoff


def make_norm_spec(sc: Scenario) -> NormSpec:
    """The norms block as a NormSpec; s and orti_check are finite numbers."""
    return NormSpec(s=_finite(sc.norms["s"], "norms.s"),
                    orti_check=_finite(sc.norms["orti_check"], "norms.orti_check"))


def _floats(x, what: str):
    """A JSON number or list as a float or nested tuples of floats, each
    entry a number (`_number`); their finiteness is a DomainSpec rule."""
    if isinstance(x, (list, tuple)):
        return tuple(_floats(v, what) for v in x)
    return _number(x, f"{what} entry")


def make_domain(sc: Scenario) -> DomainSpec:
    """The domain block as a DomainSpec; sigma_points may be the string form."""
    d = sc.domain
    sig = d["sigma_points"]
    return DomainSpec(d["kind"], _floats(d["lengths"], "domain.lengths"),
                      _floats(d["robin_gamma"], "domain.robin_gamma"),
                      sig if isinstance(sig, str) else _floats(sig, "domain.sigma_points"))


def make_basis(sc: Scenario) -> EigenBasis:
    return build_basis(make_domain(sc), sc.J)


def source_settings(sc: Scenario) -> tuple[float, float, int]:
    """The pulse width and amplitude and the reference mode (phi_mode) of the
    source block; width and mode must be explicit, width and amplitude finite,
    amplitude nonzero, and eta0 zero if given."""
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
    amplitude = _finite(src.get("amplitude", 1.0), "source.amplitude")
    if amplitude == 0.0:
        raise ScenarioValidationError(["source.amplitude 0 leaves both sources zero"])
    return _finite(src["pulse_width"], "source.pulse_width"), amplitude, mode


def _number(value, what: str) -> float:
    """A scenario entry that must be a JSON number (not a bool or a string),
    as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError([f"{what} {value!r} must be a number"])
    return float(value)


def _finite(value, what: str) -> float:
    """A scenario entry that must be a finite number (not a bool), as a float."""
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ScenarioValidationError([f"{what} {value!r} must be a finite number"])
    return float(value)


def forward_settings(sc: Scenario) -> tuple[float, float]:
    """The forward-solve preset's sigma perturbation size (sigma_perturbation)
    and constant nonlinearity (source.eta_forward)."""
    return (_finite(sc.raw.get("sigma_perturbation", 0.05), "sigma_perturbation"),
            _finite(sc.source.get("eta_forward", 1e-3), "source.eta_forward"))


def reference_pulse(sc: Scenario, basis: EigenBasis, params: ModelParams) -> tuple[np.ndarray, int]:
    """The pulse harmonics psi (M,) and the reference mode source.phi_mode,
    after checking that the mode is admissible on the basis' domain."""
    width, amplitude, mode = source_settings(sc)
    check_reference_mode(basis.domain, mode)
    return design_delta_pulse(params, sc.M, width, amplitude=amplitude), mode


def make_reference(sc: Scenario, basis: EigenBasis, params: ModelParams) -> SourcePair:
    """The source pair psi, A psi the run is linearized with (`reference_pulse`)."""
    return amplitude_modulate(reference_pulse(sc, basis, params)[0], params.A)


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
        cutoff = _integer(cfg.get("cutoff", max(2, sc.J // 2)), "true_fields.cutoff")
        if cutoff < 0:
            raise ScenarioValidationError([f"true_fields.cutoff {cutoff} must be nonnegative"])
        cutoff = min(cutoff, sc.J)
    modes = []
    for c, key in enumerate(("sigma_modes", "eta_modes")):
        for j, val in cfg.get(key, []):
            j = _integer(j, f"{key} index")
            if not 0 <= j < sc.J:
                raise ScenarioValidationError([f"{key} index {j} outside truncation"])
            modes.append((c, j, _finite(val, f"{key} value")))
    du_band = _integer(cfg.get("du_band", sc.M), "true_fields.du_band")
    if not 0 <= du_band <= sc.M:
        raise ScenarioValidationError([f"true_fields.du_band {du_band} outside 0..M = 0..{sc.M}"])
    return (cutoff, _finite(cfg.get("du_scale", 1.0), "true_fields.du_scale"), du_band, modes)


def true_coefficients(sc: Scenario, J: int, z_a) -> np.ndarray:
    """The truth's coefficient pairs a (..., J, 2) from its leading normals
    z_a (..., 2 * cutoff): decaying random values in modes below the cutoff,
    a_sigma first, and for "low_mode" the explicit entries."""
    cutoff, _, _, modes = true_field_settings(sc)
    batch = z_a.shape[:-1]
    a = np.zeros(batch + (J, 2))
    a[..., :cutoff, :] = (np.swapaxes(z_a.reshape(batch + (2, cutoff)), -1, -2)
                          / (1.0 + np.arange(cutoff))[:, None])
    if truth_kind(sc) == "low_mode":
        for c, j, val in modes:
            a[..., j, c] = val
    return a


def make_true_fields(sc: Scenario, basis: EigenBasis, rng: np.random.Generator,
                     draws: int | None = None) -> LinearizedInput:
    """Synthetic truth in the retained spectral span.

    kinds: "low_mode" takes explicit (mode, value) lists for both channels;
    "random_low_mode" draws decaying random coefficients up to a cutoff
    (`true_coefficients`).  The state perturbation is a decaying random draw
    scaled by du_scale.

    A truth takes its normals from the generator in the order a_sigma, a_eta,
    real and imaginary part of du.  With `draws`, that many truths come
    stacked on a leading batch axis from one generator call; they equal
    `draws` successive calls without it.
    """
    J, M = basis.J, sc.M
    batch = () if draws is None else (int(draws),)
    cutoff, du_scale, du_band, _ = true_field_settings(sc)
    z_a, z_du = np.split(rng.standard_normal(batch + (2 * cutoff + 4 * M * J,)), [2 * cutoff],
                         axis=-1)
    a = true_coefficients(sc, J, z_a)
    decay = 1.0 / ((1.0 + np.arange(1, M + 1))[:, None] * (1.0 + basis.lambdas)[None, :])
    re, im = np.moveaxis(z_du.reshape(batch + (2, 2, M, J)), -4, 0)
    du = du_scale * decay * (re + 1j * im)
    du[..., du_band:, :] = 0.0
    return LinearizedInput(a=a, du=du)


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
    _collect(out, "seed", check_seed, sc.seed, sc.preset)
    _collect(out, "draws", lambda: sc.draws)
    try:
        params = make_params(sc)
    except ScenarioValidationError as exc:
        return out + exc.violations
    except ValueError as exc:
        out.append(f"model parameters invalid: {exc}")
        params = None
    p = sc.params
    # ModelParams.create derives T from omega, so a written-out T is checked
    # here; make_params has checked that T and omega are finite numbers
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
    if sc.preset in ("linearized-roundtrip", "qr-sweep") and domain is not None:
        _collect(out, "truncation", check_fit_determined, sc.M, sc.J,
                 trace_point_count(domain, sc.J))
    _collect(out, "true_fields", true_field_settings, sc)
    _collect(out, "forward-solve", forward_settings, sc)
    _collect(out, "noise.delta_list", noise_levels, sc)
    if "target_cutoff" in sc.raw or sc.preset == "smoothing-study":
        _collect(out, "target_cutoff", target_cutoff, sc)
    if sc.quasirev or sc.preset == "qr-sweep":
        qr = _collect(out, "quasirev", quasirev_settings, sc)
        if qr is not None and params is not None and spec is not None:
            _collect(out, "quasirev schedule", quasirev.check_schedule, qr["tau0"],
                     qr["tau_min"], qr["tau_max"], qr["grid_ratio"], qr["tolerance"],
                     params.sigma0, params.beta, params.T, params.T0, spec.orti_check)
    return out


def min_symbol_magnitude(sc: Scenario, basis: EigenBasis, params: ModelParams) -> float:
    """Smallest harmonic symbol magnitude, the nonresonance margin."""
    return float(np.min(np.abs(symbols_matrix(params, basis.lambdas, sc.M))))

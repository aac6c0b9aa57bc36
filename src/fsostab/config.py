"""Config file parsing and validation.

Configs are JSON with explicit unit suffixes in every key name
(*_hz, *_m, *_s) so unit mistakes are visible at the call site. An
empty file resolves to the experiment defaults (193.1 THz primary and
secondary, 150 m channel, 20 kHz sampling, 19-channel grid, calibrated
models, base seed 101). Unknown keys are rejected by name, and a value
of the wrong JSON type is rejected, not coerced. A model is a
phase PSD; one given as ``"kind": "frequency"`` (S_nu in Hz^2/Hz) is
converted on load by S_phi = S_nu / f^2, and written back as
``"kind": "phase"``. A manifest written by a previous run can be passed
back in as the config: its resolved snapshot is used verbatim.

Command-line flags are config keys, laid over the file before any check
and checked like it; a flag replaces the file key stating the same fact
(``n_samples`` drops ``duration_s``, ``t_one_way_s`` drops
``link_length_m``), and ``duration_s`` converts at the effective fs_hz.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError, InvalidModelError
from .experiment import calibrate_default_models
from .link import LinkConfig, ServoConfig
from .noise import PsdModel

DEFAULT_SEED = 101

#: JSON key -> (field name, type) of the fields mapped one-to-one; this
#: table drives unknown-key rejection and both directions of the mapping.
_LINK_FIELDS = {
    "nu_p_hz": ("nu_p_hz", float),
    "nu_s_hz": ("nu_s_hz", float),
    "link_length_m": ("link_length_m", float),
    "t_one_way_s": ("t_one_way_s", float),
    "fs_hz": ("fs_hz", float),
    "n_samples": ("n_samples", int),
    "approximate_roundtrip": ("approximate_roundtrip", bool),
}
_SERVO_FIELDS = {
    "kp": ("kp", float),
    "ki_per_s": ("ki", float),
    "kii_per_s2": ("kii", float),
}
#: field type -> (what its JSON value must be, the JSON types it takes); a number is no bool or string
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", (int,)), bool: ("true or false", (bool,))}
_LINK_KEYS = set(_LINK_FIELDS) | {"servo", "duration_s", "models", "experiment"}
_MODEL_KEYS = {"kind", "ref_freq_hz", "segments", "f_min_hz", "f_max_hz"}
_SEGMENT_KEYS = {"f_break_hz", "exponent", "level"}
#: experiment key -> (what its value must be, the test); type(), not isinstance: JSON true is no int
_EXPERIMENT_KEYS = {
    "base_seed": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "nperseg": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "channels_thz": ("a list of numbers", lambda v: type(v) is list and all(type(c) in (int, float) for c in v)),
}
_MODEL_NAMES = {"primary", "secondary", "atmosphere"}
#: key an override sets -> the file key stating the same fact, which it drops
_SAME_FACT = {"n_samples": "duration_s", "t_one_way_s": "link_length_m"}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def psd_model_from_dict(d: dict, where: str = "model") -> PsdModel:
    """Phase-noise PsdModel from its JSON form; a ``"frequency"`` model (f_min_hz > 0) is converted.

    Each S_nu segment becomes its S_phi = S_nu / f^2 law: exponent - 2, level / ref_freq_hz^2.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    _reject_unknown(d, _MODEL_KEYS, where)
    try:
        kind, ref = d["kind"], float(d["ref_freq_hz"])
        f_min_hz, f_max_hz = float(d["f_min_hz"]), float(d["f_max_hz"])
        for s in d["segments"]:
            _reject_unknown(s, _SEGMENT_KEYS, f"{where}.segments")
        segments = [(s["f_break_hz"], s["exponent"], s["level"]) for s in d["segments"]]
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} in {where}") from exc
    if kind == "frequency":
        if f_min_hz <= 0:
            raise InvalidModelError(f"{where}: a frequency-noise model must exclude f = 0 (f_min_hz > 0)")
        segments = [(f, e - 2.0, level / ref**2) for f, e, level in segments]
    elif kind != "phase":
        raise InvalidModelError(f"{where}: unknown PSD kind {kind!r} (phase or frequency)")
    return PsdModel(ref, tuple(segments), f_min_hz, f_max_hz)


def psd_model_to_dict(model: PsdModel) -> dict:
    return {
        "kind": "phase",
        "ref_freq_hz": model.ref_freq_hz,
        "segments": [
            {"f_break_hz": s.f_break_hz, "exponent": s.exponent, "level": s.level}
            for s in model.segments
        ],
        "f_min_hz": model.f_min_hz,
        "f_max_hz": model.f_max_hz,
    }


def _check_type(value, kind: type, where: str):
    """Reject a JSON value of the wrong type by name, instead of coercing it; type(), not isinstance: JSON true is no int."""
    want, types = _JSON_TYPES[kind]
    if type(value) not in types:
        raise ConfigError(f"{where} must be {want}, got {value!r}")


def _fields_from_dict(d: dict, table: dict, where: str = "") -> dict:
    fields = {}
    for key, (name, kind) in table.items():
        if key in d:
            _check_type(d[key], kind, where + key)
            fields[name] = kind(d[key])  # a JSON int given for a float field becomes a float
    return fields


def _fields_to_dict(obj, table: dict) -> dict:
    return {key: getattr(obj, name) for key, (name, _) in table.items()}


def _servo_from_dict(d: dict) -> ServoConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"servo must be a JSON object, got {d!r}")
    _reject_unknown(d, set(_SERVO_FIELDS), "servo")
    return ServoConfig(**_fields_from_dict(d, _SERVO_FIELDS, "servo."))


def _check_experiment(d: dict):
    """Reject an experiment block of the wrong shape before anything runs."""
    if not isinstance(d, dict):
        raise ConfigError("experiment must be a JSON object")
    _reject_unknown(d, set(_EXPERIMENT_KEYS), "experiment")
    for key, (want, ok) in _EXPERIMENT_KEYS.items():
        if key in d and not ok(d[key]):
            raise ConfigError(f"experiment.{key} must be {want}, got {d[key]!r}")


def link_config_from_dict(d: dict) -> LinkConfig:
    _reject_unknown(d, _LINK_KEYS, "config")
    if "n_samples" in d and "duration_s" in d:
        raise ConfigError("n_samples and duration_s are mutually exclusive")
    kwargs = _fields_from_dict(d, _LINK_FIELDS)
    if "t_one_way_s" in d:
        kwargs.setdefault("link_length_m", None)  # both given: LinkConfig rejects the pair
    if "duration_s" in d:
        _check_type(d["duration_s"], float, "duration_s")
        fs = kwargs.get("fs_hz", LinkConfig().fs_hz)
        kwargs["n_samples"] = int(round(float(d["duration_s"]) * fs))
    if "servo" in d:
        kwargs["servo"] = _servo_from_dict(d["servo"])
    return LinkConfig(**kwargs)


def link_config_to_dict(config: LinkConfig) -> dict:
    out = _fields_to_dict(config, _LINK_FIELDS)
    out["servo"] = _fields_to_dict(config.servo, _SERVO_FIELDS)
    # exactly one delay spec is set; the other is None and stays out
    del out["t_one_way_s" if config.t_one_way_s is None else "link_length_m"]
    return out


def load_config(path: str | Path | None, overrides: dict | None = None):
    """Load a run config, lay ``overrides`` over it, validate and resolve it.

    ``overrides`` maps config keys (``"experiment.base_seed"`` for a key
    of a block) to values; each replaces the file's value and drops the
    file key stating the same fact before anything is checked. Accepts a
    manifest.json from a previous run and replays its resolved snapshot.
    Returns (LinkConfig, models, experiment settings), with the calibrated
    models and base seed DEFAULT_SEED wherever the config sets none.
    """
    raw = "" if path is None else Path(path).read_text()
    data = json.loads(raw) if raw.strip() else {}
    if isinstance(data, dict) and "resolved_config" in data:
        data = data["resolved_config"]
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for key, value in (overrides or {}).items():
        block, _, name = key.rpartition(".")
        target = data.setdefault(block, {}) if block else data
        if not isinstance(target, dict):
            raise ConfigError(f"{block} must be a JSON object")
        target[name] = value
        target.pop(_SAME_FACT.get(name), None)
    config = link_config_from_dict(data)
    if "models" in data:
        mdl = data["models"]
        if not isinstance(mdl, dict):
            raise ConfigError(f"models must be a JSON object, got {mdl!r}")
        _reject_unknown(mdl, _MODEL_NAMES, "models")
        if set(mdl) != _MODEL_NAMES:
            raise ConfigError(f"models must define exactly {sorted(_MODEL_NAMES)}")
        models = {name: psd_model_from_dict(entry, where=f"models.{name}") for name, entry in mdl.items()}
    else:
        models = calibrate_default_models()
    experiment = data.get("experiment", {})
    _check_experiment(experiment)
    return config, models, {"base_seed": DEFAULT_SEED, **experiment}


def resolved_dict(config: LinkConfig, models: dict, experiment: dict) -> dict:
    """Snapshot that fully determines a rerun (goes into the manifest)."""
    out = link_config_to_dict(config)
    out["models"] = {name: psd_model_to_dict(m) for name, m in models.items()}
    out["experiment"] = dict(experiment)
    return out

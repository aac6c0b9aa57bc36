"""Config file parsing and validation.

Configs are JSON with explicit unit suffixes in every key name
(*_hz, *_m, *_s) so unit mistakes are visible at the call site. An
empty file resolves to the experiment defaults (193.1 THz primary and
secondary, 150 m channel, 20 kHz sampling, 19-channel grid, calibrated
models, base seed 101). A manifest written by a previous run can be
passed back in as the config: its resolved snapshot is used verbatim.

Every block (root, ``servo``, ``experiment``, ``models``, each model
and each segment) is checked by one function against one table of value
kinds. Unknown keys are rejected by name, and so are missing model and
segment keys. Nothing is coerced: a number is a JSON int or float, never
a string or ``true``, and finite (the ``NaN`` and ``Infinity`` that
Python's json reads are no JSON numbers, RFC 8259); it is read as a
float. ``LinkConfig`` and ``PsdModel`` check the ranges, a negative
``link_length_m`` among them. A model is a phase PSD; one given as
``"kind": "frequency"`` (S_nu in Hz^2/Hz) is converted on load by
S_phi = S_nu / f^2, and written back as ``"kind": "phase"``.

Command-line flags are config keys, laid over the file before any check
and checked like it; a flag replaces the file key stating the same fact
(``n_samples`` drops ``duration_s``, ``t_one_way_s`` drops
``link_length_m``), and ``duration_s`` converts at the effective fs_hz.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, InvalidModelError
from .experiment import calibrate_default_models
from .link import LinkConfig, ServoConfig
from .noise import PsdModel, PsdSegment

DEFAULT_SEED = 101


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is no 1


def _number(v) -> bool:
    return (_integer(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max  # no NaN, no Infinity


#: value kind -> (what its JSON value must be, the test)
_KINDS = {
    "number": ("a finite number", _number),
    "integer": ("an integer", _integer),
    "seed": ("an integer >= 0", lambda v: _integer(v) and v >= 0),
    "nperseg": ("an integer >= 1", lambda v: _integer(v) and v >= 1),
    "bool": ("true or false", lambda v: type(v) is bool),
    "numbers": ("a list of finite numbers", lambda v: type(v) is list and all(map(_number, v))),
    "object": ("a JSON object", lambda v: type(v) is dict),
    "objects": ("a list of JSON objects", lambda v: type(v) is list and all(type(s) is dict for s in v)),
    "string": ("a string", lambda v: type(v) is str),
}
#: block tables, JSON key -> value kind
_LINK_FIELDS = {"nu_p_hz": "number", "nu_s_hz": "number", "link_length_m": "number", "t_one_way_s": "number",
                "fs_hz": "number", "n_samples": "integer", "approximate_roundtrip": "bool"}
_ROOT = {**_LINK_FIELDS, "duration_s": "number", "servo": "object", "models": "object", "experiment": "object"}
_SERVO = {"kp": "number", "ki_per_s": "number", "kii_per_s2": "number"}
_EXPERIMENT = {"base_seed": "seed", "nperseg": "nperseg", "channels_thz": "numbers"}
_MODELS = dict.fromkeys(("primary", "secondary", "atmosphere"), "object")
_MODEL = {"kind": "string", "ref_freq_hz": "number", "segments": "objects", "f_min_hz": "number", "f_max_hz": "number"}
_SEGMENT = {"f_break_hz": "number", "exponent": "number", "level": "number"}
#: JSON key -> field name where the two differ; serves both directions of the mapping
_FIELD_NAMES = {"ki_per_s": "ki", "kii_per_s2": "kii"}
#: key an override sets -> the file key stating the same fact, which it drops
_SAME_FACT = {"n_samples": "duration_s", "t_one_way_s": "link_length_m"}


def _checked(d: dict, table: dict, where: str, required: bool = False) -> dict:
    """The values of block ``d`` by field name, each checked against its kind in ``table``; numbers read as floats.

    A key not in ``table`` is rejected by name, and so is a missing one when ``required``.
    """
    if set(d) - set(table):
        raise ConfigError(f"unknown key(s) {sorted(set(d) - set(table))} in {where or 'config'}")
    if required and set(table) - set(d):
        raise ConfigError(f"missing key(s) {sorted(set(table) - set(d))} in {where}")
    out = {}
    for key, value in d.items():
        want, ok = _KINDS[table[key]]
        if not ok(value):
            raise ConfigError(f"{where}{'.' if where else ''}{key} must be {want}, got {value!r}")
        out[_FIELD_NAMES.get(key, key)] = float(value) if table[key] == "number" else value
    return out


def psd_model_from_dict(d: dict, where: str = "model") -> PsdModel:
    """Phase-noise PsdModel from its JSON form; a ``"frequency"`` model (f_min_hz > 0) is converted.

    Each S_nu segment becomes its S_phi = S_nu / f^2 law: exponent - 2, level / ref_freq_hz^2.
    """
    fields = _checked(d, _MODEL, where, required=True)
    kind, ref = fields.pop("kind"), fields["ref_freq_hz"]
    segments = [PsdSegment(**_checked(s, _SEGMENT, f"{where}.segments[{i}]", required=True))
                for i, s in enumerate(fields.pop("segments"))]
    if kind == "frequency":
        if fields["f_min_hz"] <= 0:
            raise InvalidModelError(f"{where}: a frequency-noise model must exclude f = 0 (f_min_hz > 0)")
        segments = [PsdSegment(s.f_break_hz, s.exponent - 2.0, s.level / (ref * ref)) for s in segments]
    elif kind != "phase":
        raise InvalidModelError(f"{where}: unknown PSD kind {kind!r} (phase or frequency)")
    try:
        return PsdModel(segments=tuple(segments), **fields)
    except InvalidModelError as exc:
        raise InvalidModelError(f"{where}: {exc}") from None


def _fields_to_dict(obj, keys) -> dict:
    return {key: getattr(obj, _FIELD_NAMES.get(key, key)) for key in keys}


def psd_model_to_dict(model: PsdModel) -> dict:
    fields = _fields_to_dict(model, ("ref_freq_hz", "f_min_hz", "f_max_hz"))
    return {"kind": "phase", **fields, "segments": [_fields_to_dict(s, _SEGMENT) for s in model.segments]}


def link_config_from_dict(d: dict) -> LinkConfig:
    kwargs = _checked(d, _ROOT, "")
    kwargs.pop("models", None)
    kwargs.pop("experiment", None)
    if "n_samples" in kwargs and "duration_s" in kwargs:
        raise ConfigError("n_samples and duration_s are mutually exclusive")
    if "t_one_way_s" in kwargs:
        kwargs.setdefault("link_length_m", None)  # both given: LinkConfig rejects the pair
    if "duration_s" in kwargs:
        n = kwargs.pop("duration_s") * kwargs.get("fs_hz", LinkConfig.fs_hz)
        if not math.isfinite(n):
            raise ConfigError(f"duration_s must give a finite sample count at fs_hz, got {n:g} samples")
        kwargs["n_samples"] = int(round(n))
    if "servo" in kwargs:
        kwargs["servo"] = ServoConfig(**_checked(kwargs["servo"], _SERVO, "servo"))
    return LinkConfig(**kwargs)


def link_config_to_dict(config: LinkConfig) -> dict:
    out = _fields_to_dict(config, _LINK_FIELDS)
    out["servo"] = _fields_to_dict(config.servo, _SERVO)
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
    if not isinstance(data, dict):  # flags are laid into the root and its blocks before any check
        raise ConfigError(f"config root must be a JSON object, got {data!r}")
    for key, value in (overrides or {}).items():
        block, _, name = key.rpartition(".")
        target = data.setdefault(block, {}) if block else data
        if not isinstance(target, dict):
            raise ConfigError(f"{block} must be a JSON object, got {target!r}")
        target[name] = value
        target.pop(_SAME_FACT.get(name), None)
    config = link_config_from_dict(data)
    if "models" in data:
        entries = _checked(data["models"], _MODELS, "models", required=True)
        models = {name: psd_model_from_dict(entry, where=f"models.{name}") for name, entry in entries.items()}
    else:
        models = calibrate_default_models()
    experiment = _checked(data.get("experiment", {}), _EXPERIMENT, "experiment")
    return config, models, {"base_seed": DEFAULT_SEED, **experiment}


def resolved_dict(config: LinkConfig, models: dict, experiment: dict) -> dict:
    """Snapshot that fully determines a rerun (goes into the manifest)."""
    out = link_config_to_dict(config)
    out["models"] = {name: psd_model_to_dict(m) for name, m in models.items()}
    out["experiment"] = dict(experiment)
    return out

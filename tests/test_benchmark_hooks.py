"""The names the benchmark tracer patches must exist in the package.

The benchmark's own gate runs untraced, so a renamed package symbol
would only break a traced run (`perfbench/run.py --trace 1`).
"""

import importlib.util
from pathlib import Path

from fsostab import cli, experiment
from fsostab.link import LinkConfig, ServoConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    originals = {name: getattr(cli, name) for name in ("run_three_modes", "estimate_psd", "main")}
    tr = tracer.Tracer()
    try:
        tracer.install(tr)  # raises AttributeError on any name the package no longer has
        assert cli.main is not originals["main"]
    finally:
        tr.restore()
    for name, fn in originals.items():
        assert getattr(cli, name) is fn


def test_traced_channel_records_every_layer():
    # a refactor that routes around a traced name would set its per-layer metrics to 0
    tracer = load_tracer()
    tr = tracer.Tracer()
    config = LinkConfig(fs_hz=1000.0, n_samples=2**12, servo=ServoConfig(kp=0.2, ki=100.0))
    try:
        tracer.install(tr)
        experiment.run_three_modes(config, experiment.calibrate_default_models(), 3)
    finally:
        tr.restore()
    layers = tr.layers()
    for name in ("noise.synthesize", "noise.irfft", "noise.psd_eval", "link.delay", "link.solve", "link.run",
                 "experiment.spot"):
        assert layers.get(name, {}).get("calls", 0) > 0, name
    assert layers["link.run"]["calls"] == 3
    # the forcing's three delays once per channel, and theta's once per stabilized mode
    assert layers["link.delay"]["calls"] == 3 + 2

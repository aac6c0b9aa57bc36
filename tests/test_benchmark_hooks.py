"""The names the benchmark tracer patches, and the calls its workloads make, must exist in the package.

The benchmark's own gate runs untraced, so a renamed package symbol
would only break a traced run (`perfbench/run.py --trace 1`), and a
changed call shape would only show as the benchmark's failed operations.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fsostab import cli, experiment, link
from fsostab.link import LinkConfig, ServoConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


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


def test_traced_channel_records_every_layer(monkeypatch):
    # a refactor that routes around a traced name would set its per-layer metrics to 0; the tracer's
    # link.solve layer wraps scipy.signal.lfilter, which the package no longer calls, so Loop.solve is counted here
    tracer = load_tracer()
    tr = tracer.Tracer()
    config = LinkConfig(fs_hz=1000.0, n_samples=2**12, servo=ServoConfig(kp=0.2, ki=100.0))
    solves = []
    solve = link.Loop.solve
    monkeypatch.setattr(link.Loop, "solve", lambda loop, d: solves.append(d.size) or solve(loop, d))
    try:
        tracer.install(tr)
        experiment.run_three_modes(config, experiment.calibrate_default_models(), 3)
    finally:
        tr.restore()
    layers = tr.layers()
    for name in ("noise.synthesize", "noise.irfft", "noise.psd_eval", "link.delay", "link.run", "experiment.spot"):
        assert layers.get(name, {}).get("calls", 0) > 0, name
    # one run solves the loop once for every mode
    assert layers["link.run"]["calls"] == 1
    assert solves == [config.n_samples]
    # the forcing's two delays (the primary and atmosphere's round trip, the secondary's one way), and theta's
    # once for each stabilized measurement
    assert layers["link.delay"]["calls"] == 2 + 2


def test_traced_reference_engine_counts_every_sample():
    # link.reference.us_per_sample divides by this count: the engine must look servo_update up after the
    # tracer has patched it, and call it positionally, as the counting wrapper takes no keywords
    tracer = load_tracer()
    tr = tracer.Tracer()
    n = 2**12
    config = LinkConfig(fs_hz=1000.0, n_samples=n, servo=ServoConfig(kp=0.2, ki=100.0))
    inputs = link.NoiseInputs.from_models(experiment.calibrate_default_models(), config.fs_hz, n, 3, config.nu_p_hz)
    try:
        tracer.install(tr)
        _, trace = link.run_link(config, inputs, mode="doppler", engine="reference")
    finally:
        tr.restore()
    assert trace.engine == "reference"
    assert tr.counts["link.reference.samples"] == n
    assert tr.layers()["link.reference"]["calls"] == 1


@pytest.mark.parametrize("name", ["sweep", "trace", "validate"])
def test_workload_runs_clean(name, tmp_path):
    # every call the benchmark makes into the package, with its checks; "quiet" is left out for its peak of about 436 MB
    workloads = load_perfbench("workloads")
    outcome = workloads.WORKLOADS[name](experiment.calibrate_default_models(), 0, tmp_path)
    assert outcome.failed == []
    # the benchmark also marks a run incorrect when its spot names differ from the stored references, as when
    # compare's Welch no longer goes through cli.estimate_psd or simulate no longer calls cli.run_three_modes
    references = json.loads((PERFBENCH / "references.json").read_text())
    assert set(outcome.spots) == set(references[name]["0"])

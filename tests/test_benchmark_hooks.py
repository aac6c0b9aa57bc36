"""The names the benchmark tracer patches must exist in the package.

The benchmark's own gate runs untraced, so a renamed package symbol
would only break a traced run (`perfbench/run.py --trace 1`).
"""

import importlib.util
from pathlib import Path

from fsostab import cli

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

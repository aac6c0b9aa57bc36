"""Outside-in span tracer for the fsostab benchmark.

Spans are recorded around calls into the package's public functions and
its numeric back ends, by replacing those names in each caller's
namespace from here; the package itself is not edited. A span is
(name, start, end, parent), kept in memory and written out when the run
ends. Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans and counters; `install` patches, `restore` undoes."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index]
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._tallies = {}  # counter key -> itertools.count, folded in by restore()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrapped(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if count is not None:
                for key, val in count(args, kwargs).items():
                    tracer.counts[key] += val
            idx = tracer.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return wrapper

    def wrap(self, owner, attr: str, name, count=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of (args, kwargs) giving
        one; ``count`` maps (args, kwargs) to counter increments.
        A classmethod is unwrapped and rewrapped as one.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapped(raw.__func__, name, count))
        else:
            new = self._wrapped(raw, name, count)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def count_calls(self, owner, attr: str, key: str):
        """Replace ``owner.attr`` with a wrapper that only counts calls.

        For per-sample functions, where a span per call would cost more
        than the call itself.
        """
        fn = getattr(owner, attr)
        calls = itertools.count()
        tick = calls.__next__

        def wrapper(*args):
            tick()
            return fn(*args)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))
        self._tallies[key] = calls

    def count_log(self, logger_name: str, key: str, needle: str):
        """Count warning records of a logger whose message contains ``needle``."""
        counts = self.counts

        class _Handler(logging.Handler):
            def emit(self, record):
                if needle in record.msg:
                    counts[key] += 1

        handler = _Handler(logging.WARNING)
        logger = logging.getLogger(logger_name)
        logger.addHandler(handler)
        self._undo.append((logger, None, handler))

    def restore(self):
        """Undo every patch and fold call tallies into the counters."""
        for key, calls in self._tallies.items():
            self.counts[key] += next(calls)
        self._tallies.clear()
        for owner, attr, raw in reversed(self._undo):
            if attr is None:
                owner.removeHandler(raw)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()

    def layers(self) -> dict:
        """Per span name: calls, busy_s (outermost spans only) and self_s.

        A span's self time is its duration minus the part its direct
        children cover.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            if not self._inside_same(i, name):
                row["busy_s"] += end - start
        return dict(out)

    def _inside_same(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _irfft_points(args, kwargs):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is None:
        n = 2 * (len(args[0]) - 1)
    return {"noise.irfft.points": int(n)}


def _integer_delay(args, kwargs):
    delay = kwargs.get("delay_samples", args[1] if len(args) > 1 else None)
    return {"link.delay.integer_calls": int(float(delay).is_integer())}


def _run_link_name(args, kwargs):
    return "link.reference" if kwargs.get("engine") == "reference" else "link.run"


def install(tracer: Tracer):
    """Patch every traced boundary, in the namespace of each caller."""
    import numpy.fft
    import scipy.signal

    from fsostab import cli, experiment, link, noise, spectral

    tracer.wrap(noise.PsdModel, "eval", "noise.psd_eval")
    tracer.wrap(numpy.fft, "irfft", "noise.irfft", _irfft_points)
    for mod in (link, spectral):
        tracer.wrap(mod, "synthesize_phase_noise", "noise.synthesize")
    tracer.wrap(scipy.signal, "welch", "noise.welch")
    tracer.count_log("fsostab.noise", "noise.extension_warnings", "slope extension")

    tracer.wrap(link, "fractional_delay", "link.delay", _integer_delay)
    tracer.wrap(scipy.signal, "lfilter", "link.solve")
    tracer.wrap(link.NoiseInputs, "from_models", "link.inputs")
    tracer.count_calls(link, "servo_update", "link.reference.samples")
    for mod in (link, experiment, cli):
        tracer.wrap(mod, "run_link", _run_link_name)

    tracer.wrap(spectral, "delayed_combination_oracle", "spectral.oracle")
    tracer.wrap(cli, "identity_check_suite", "spectral.identity")
    tracer.wrap(cli, "predicted_mode_psd", "spectral.predict")
    tracer.wrap(cli, "log_band_medians", "spectral.band_medians")

    tracer.wrap(experiment, "channel_sweep", "experiment.sweep")
    for mod in (experiment, cli):
        tracer.wrap(mod, "run_three_modes", "experiment.three_modes")
        tracer.wrap(mod, "log_bin_spectrum", "experiment.log_bin")
    tracer.wrap(experiment, "spot_phase_noise", "experiment.spot")
    tracer.wrap(experiment, "emit_outputs", "experiment.emit")

    tracer.wrap(cli, "main", "cli.command")
    tracer.wrap(cli, "load_config", "cli.config")
    tracer.wrap(cli, "resolved_dict", "cli.config")
    tracer.wrap(cli, "write_manifest", "cli.manifest")

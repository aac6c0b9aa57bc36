"""fsostab benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --record                # rewrite references.json

Each repetition runs in a fresh child interpreter (child.py) with the
package from ./src, one at a time, with the BLAS/OpenMP thread variables
pinned to the CPUs this process may use. Repetitions continue until
--seconds have passed (at least MIN_REPS). With --trace 0 the last line
carries the end-to-end metrics, medians over the repetitions; with
--trace 1 one untraced repetition is followed by traced ones (then
alternating) and the last line carries the per-layer metrics. The full record of a run,
environment included, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
WORKLOADS = ("sweep", "quiet", "trace", "validate")

#: The seed selects one of this many input sets; the spots of each set,
#: recorded at the seed commit, are stored in references.json.
INPUT_SETS = 16
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: A run stops starting repetitions that would end after this many seconds.
RUN_LIMIT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E = (  # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("msamples_per_s", "Msample/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _spans(name, key):
    return lambda r: r["spans"].get(name, {}).get(key, 0)


def _count(key):
    return lambda r: r["counts"].get(key, 0)


def _layer(key):
    return lambda r: r["layer"].get(key, 0)


def _us_per_sample(r):
    samples = r["counts"].get("link.reference.samples", 0)
    return 1e6 * _spans("link.reference", "busy_s")(r) / samples if samples else 0.0


#: Per-layer metrics of one traced repetition: name, unit, getter. Units
#: "count" and "B" must repeat exactly between traced repetitions. These
#: are on the last line of a traced run; every workload runs each timed
#: layer here, so no time reads 0 s on every run.
PER_LAYER = (
    ("noise.psd_eval.calls", "count", _spans("noise.psd_eval", "calls")),
    ("noise.psd_eval.busy_s", "s", _spans("noise.psd_eval", "busy_s")),
    ("noise.irfft.calls", "count", _spans("noise.irfft", "calls")),
    ("noise.irfft.busy_s", "s", _spans("noise.irfft", "busy_s")),
    ("noise.irfft.points", "count", _count("noise.irfft.points")),
    ("noise.synthesize.calls", "count", _spans("noise.synthesize", "calls")),
    ("noise.synthesize.self_s", "s", _spans("noise.synthesize", "self_s")),
    ("noise.welch.calls", "count", _spans("noise.welch", "calls")),
    ("noise.welch.busy_s", "s", _spans("noise.welch", "busy_s")),
    ("noise.extension_warnings", "count", _count("noise.extension_warnings")),
    ("link.inputs.self_s", "s", _spans("link.inputs", "self_s")),
    ("link.delay.calls", "count", _spans("link.delay", "calls")),
    ("link.delay.integer_calls", "count", _count("link.delay.integer_calls")),
    ("link.delay.busy_s", "s", _spans("link.delay", "busy_s")),
    ("link.solve.calls", "count", _spans("link.solve", "calls")),
    ("link.solve.busy_s", "s", _spans("link.solve", "busy_s")),
    ("link.run.calls", "count", _spans("link.run", "calls")),
    ("link.run.self_s", "s", _spans("link.run", "self_s")),
    ("link.reference.samples", "count", _count("link.reference.samples")),
    ("link.engine_max_diff_rad", "rad", _layer("link.engine_max_diff_rad")),
    ("link.engine_max_diff_pii_rad", "rad", _layer("link.engine_max_diff_pii_rad")),
    ("spectral.oracle.calls", "count", _spans("spectral.oracle", "calls")),
    ("experiment.spot.calls", "count", _spans("experiment.spot", "calls")),
    ("experiment.spot.busy_s", "s", _spans("experiment.spot", "busy_s")),
    ("experiment.log_bin.calls", "count", _spans("experiment.log_bin", "calls")),
    ("experiment.bytes_written", "B", _layer("experiment.bytes_written")),
    ("cli.command.calls", "count", _spans("cli.command", "calls")),
    ("cli.manifest.calls", "count", _spans("cli.manifest", "calls")),
    ("cli.bytes_written", "B", _layer("cli.bytes_written")),
)
#: Times of layers only some workloads run. A layer a workload does not
#: run reads 0 s on every run, so these stay in the table and the run
#: record and are left off the last line.
WORKLOAD_LAYER = (
    ("link.reference.busy_s", "s", _spans("link.reference", "busy_s")),
    ("link.reference.us_per_sample", "us", _us_per_sample),
    ("spectral.oracle.busy_s", "s", _spans("spectral.oracle", "busy_s")),
    ("spectral.predict.busy_s", "s", _spans("spectral.predict", "busy_s")),
    ("spectral.band_medians.busy_s", "s", _spans("spectral.band_medians", "busy_s")),
    ("experiment.log_bin.busy_s", "s", _spans("experiment.log_bin", "busy_s")),
    ("experiment.emit.busy_s", "s", _spans("experiment.emit", "busy_s")),
    ("cli.config.busy_s", "s", _spans("cli.config", "busy_s")),
    ("cli.manifest.busy_s", "s", _spans("cli.manifest", "busy_s")),
    ("cli.command.self_s", "s", _spans("cli.command", "self_s")),
)
#: Metrics of the traced run as a whole, added after PER_LAYER.
RUN_LAYER = (
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
    ("check.spot_drift_db", "dB"),
    ("check.count_mismatches", "count"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER + WORKLOAD_LAYER} | dict(RUN_LAYER)


class ChildFailed(RuntimeError):
    pass


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def run_child(workload: str, base_seed: int, traced: bool, timeout_s: float, env: dict) -> dict:
    """One repetition in a fresh interpreter; adds the child's peak RSS."""
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = WORK / f"{workload}.result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), workload, str(base_seed), "1" if traced else "0",
            str(result_path), str(out_dir)]
    log_path = WORK / f"{workload}.child.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    deadline = time.monotonic() + timeout_s
    pid = 0
    try:
        while not pid:
            if time.monotonic() > deadline:
                raise ChildFailed(f"{workload} repetition exceeded {timeout_s:.0f} s")
            time.sleep(0.02)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:
            proc.kill()
            os.wait4(proc.pid, 0)
        shutil.rmtree(out_dir, ignore_errors=True)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Repetitions for one run; returns the record of the run."""
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    base_seed = seed % INPUT_SETS
    start = time.monotonic()
    plain, traced_reps = [], []
    while True:
        elapsed = time.monotonic() - start
        last = (plain + traced_reps)[-1]["rep_s"] if plain or traced_reps else 0.0
        if traced:
            need = not plain or len(traced_reps) < MIN_TRACED_REPS
        else:
            need = len(plain) < MIN_REPS
        if not need and (elapsed >= seconds or elapsed + last > RUN_LIMIT_S):
            break
        # traced repetitions follow the first untraced one, then alternate
        # with untraced ones, so the overhead compares like with like
        trace_this = traced and bool(plain) and len(traced_reps) <= len(plain)
        t0 = time.monotonic()
        rep = run_child(workload, base_seed, trace_this, RUN_LIMIT_S + 10.0 - elapsed, env)
        rep["rep_s"] = time.monotonic() - t0
        (traced_reps if trace_this else plain).append(rep)
    return _summarize(workload, seed, base_seed, traced, plain, traced_reps, nproc, env)


def _median(values):
    return statistics.median(values) if values else 0.0


def _summarize(workload, seed, base_seed, traced, plain, traced_reps, nproc, env) -> dict:
    reps = plain + traced_reps
    attempted = sum(r["ops"] for r in reps)
    failures = [f for r in reps for f in r["failed"]]
    checks = []
    spots = reps[0]["spots"]
    if any(r["spots"] != spots for r in reps):
        checks.append("spots differ between repetitions of one seed")
    refs = json.loads(REFERENCES.read_text()).get(workload, {}).get(str(base_seed)) if REFERENCES.exists() else None
    if refs is None or set(refs) != set(spots):
        checks.append("no stored reference spots for this input set")
        drift = None
    else:
        drift = max(abs(spots[k] - refs[k]) for k in spots)

    e2e = {
        "setup_s": _median([r["setup_s"] for r in plain]),
        "wall_s": _median([r["wall_s"] for r in plain]),
        "msamples_per_s": _median([r["mode_samples"] / r["wall_s"] / 1e6 for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    layer, workload_layer = {}, {}
    if traced:
        per_rep = [{name: get(r) for name, _, get in PER_LAYER + WORKLOAD_LAYER} for r in traced_reps]
        for row, r in zip(per_rep, traced_reps):
            row.update({f"span:{k}.calls": v["calls"] for k, v in r["spans"].items()})
        exact = {k for row in per_rep for k in row if k.startswith("span:") or UNITS.get(k) in ("count", "B")}
        mismatches = sorted(k for k in exact if any(row.get(k) != per_rep[0].get(k) for row in per_rep))
        if mismatches:
            checks.append(f"counts differ between traced repetitions: {mismatches}")
        for table, metrics in ((layer, PER_LAYER), (workload_layer, WORKLOAD_LAYER)):
            for name, _, _ in metrics:
                vals = [row[name] for row in per_rep]
                table[name] = vals[0] if name in exact else _median(vals)
        traced_wall = _median([r["wall_s"] for r in traced_reps])
        layer["trace.wall_s"] = traced_wall
        layer["trace.self_sum_s"] = _median([sum(s["self_s"] for s in r["spans"].values()) for r in traced_reps])
        layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        if abs(traced_wall - layer["trace.self_sum_s"]) > max(abs(layer["trace.overhead_s"]), 1e-3):
            checks.append("layer self times do not add up to the traced wall time")
        layer["check.spot_drift_db"] = drift
        layer["check.count_mismatches"] = len(mismatches)

    return {
        "workload": workload,
        "seed": seed,
        "input_set": base_seed,
        "traced": traced,
        "correct": not failures and not checks,
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "checks": checks,
        "spot_drift_db": drift,
        "reps": len(plain),
        "traced_reps": len(traced_reps),
        "end_to_end": e2e,
        "per_layer": layer,
        "workload_layer": workload_layer,
        "samples": {k: [r[k] for r in plain] for k in ("setup_s", "wall_s", "peak_rss_mb")},
        "params": reps[0]["params"],
        "env": {
            "nproc": nproc,
            "threads": {v: env[v] for v in THREAD_VARS},
            "versions": reps[0]["versions"],
            "machine": platform.machine(),
            "git_sha": _git_sha(),
            "src_sha256": _src_digest(),
        },
    }


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """Fingerprint of the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _fmt(val) -> str:
    return f"{'n/a':>14}" if val is None else f"{val:>14.6g}"


def _table(rec: dict) -> list:
    lines = [f"== {rec['workload']} seed {rec['seed']} (input set {rec['input_set']}), "
             f"{rec['reps']} untraced + {rec['traced_reps']} traced repetitions, params {json.dumps(rec['params'])}"]
    for name, unit, better in E2E:
        lines.append(f"  {name:<32} {rec['end_to_end'][name]:>14.6g} {unit:<10} median of {rec['reps']} ({better} is better)")
    frac = rec["failed"] / rec["attempted"]
    lines.append(f"  {'failed_frac':<32} {frac:>14.6g} {'':<10} {rec['failed']} of {rec['attempted']} operations")
    lines.append(f"  {'spot_drift_db':<32} {_fmt(rec['spot_drift_db'])} dB")
    for name, val in (rec["per_layer"] | rec["workload_layer"]).items():
        note = " (computed from array sizes)" if name == "noise.irfft.points" else ""
        lines.append(f"  {name:<32} {_fmt(val)} {UNITS[name]}{note}")
    for msg in rec["failures"] + rec["checks"]:
        lines.append(f"  FAIL {msg}")
    return lines


def _contract_line(rec: dict) -> str:
    if rec["traced"]:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in rec["per_layer"].items()}
    else:
        metrics = {name: {"value": rec["end_to_end"][name], "unit": unit} for name, unit, _ in E2E}
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics})


def record_references():
    """Run every input set of every workload once and store its spots."""
    refs = {}
    env = _child_env(len(os.sched_getaffinity(0)))
    for workload in WORKLOADS:
        refs[workload] = {}
        for base_seed in range(INPUT_SETS):
            rep = run_child(workload, base_seed, False, RUN_LIMIT_S, env)
            if rep["failed"]:
                raise SystemExit(f"{workload} input set {base_seed} failed: {rep['failed']}")
            refs[workload][str(base_seed)] = rep["spots"]
            print(f"{workload} input set {base_seed}: {len(rep['spots'])} spots", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def _sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the stored reference spots")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fsostab" / "__init__.py").is_file():
        print(f"fsostab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _sigterm)
    WORK.mkdir(exist_ok=True)
    if args.record:
        record_references()
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in names:
        try:
            rec = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as exc:
            print(str(exc), file=sys.stderr)
            return 1
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        (results / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(rec, indent=1) + "\n")
        print("\n".join(_table(rec)), flush=True)
        records.append(rec)
    if len(records) > 1:
        print(f"{'workload':<10} " + " ".join(f"{n:>15}" for n, _, _ in E2E) + f" {'failed_frac':>12} {'spot_drift_db':>14}")
        for rec in records:
            print(f"{rec['workload']:<10} " + " ".join(f"{rec['end_to_end'][n]:>15.6g}" for n, _, _ in E2E)
                  + f" {rec['failed'] / rec['attempted']:>12.6g} {_fmt(rec['spot_drift_db'])}")
    else:
        print(_contract_line(records[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

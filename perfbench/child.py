"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py WORKLOAD SEED TRACE RESULT_JSON OUT_DIR

Times set-up (import fsostab, calibrate the default models), then runs
the workload and its checks, optionally traced, and writes one JSON
result. The parent process reads the peak RSS of this process.
"""

import json
import sys
import time
import traceback
from pathlib import Path


def main():
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    result_path, out_dir = Path(sys.argv[4]), Path(sys.argv[5])

    t0 = time.perf_counter()
    import fsostab

    models = fsostab.calibrate_default_models()
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    import tracer
    import workloads

    tr = tracer.Tracer() if traced else None
    if tr:
        tracer.install(tr)
    t1 = time.perf_counter()
    root = tr.begin("workload") if tr else None
    try:
        outcome = workloads.WORKLOADS[workload](models, seed, out_dir)
    except Exception as exc:  # the run's operations all count as failed
        traceback.print_exc()
        outcome = workloads.Outcome(ops=workloads.OPS[workload], failed=[f"raised {exc!r}"] * workloads.OPS[workload])
    finally:
        if tr:
            tr.end(root)
    wall_s = time.perf_counter() - t1

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "spots": outcome.spots,
        "mode_samples": outcome.mode_samples,
        "params": outcome.params,
        "layer": outcome.layer,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tr:
        tr.restore()
        tr.dump(result_path.with_suffix(".spans.jsonl"))
        result["spans"] = tr.layers()
        result["counts"] = dict(tr.counts)
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()

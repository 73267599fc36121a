"""One benchmark operation in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED TOY TRACE

Imports spinhom from ``src/`` of the checkout, loads and classifies the
workload's model (the set-up every CLI invocation pays), then times one
``spinhom.cli.run(argv)`` call with its output captured, and checks the
output after the timed call.  With TRACE=1 the package is wrapped by
``tracer.Tracer`` first.  Prints one JSON line: the timings, peak RSS,
per-layer metrics when traced, and ``error`` when the operation failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def operation(name: str, seed: int, toy: bool, trace: bool) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import spinhom
    from spinhom import cli
    import_s = time.perf_counter() - start
    if not Path(spinhom.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"spinhom imported from {spinhom.__file__}, not from the checkout")

    import workloads
    from importlib import resources

    job = workloads.job(name, seed, toy)
    model_path = str(resources.files("spinhom").joinpath("fixtures").joinpath(job.fixture))
    spinhom.classify(spinhom.load_model(model_path))
    setup_s = time.perf_counter() - start

    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap("cli", cli.run)
    else:
        run = cli.run
    argv = job.argv(model_path)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    wall_s = time.perf_counter() - t0

    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "argv": argv,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    if code != 0:
        result["error"] = f"exit code {code}"
    else:
        try:
            job.check(out.getvalue())
        except workloads.CheckFailed as exc:
            result["error"] = f"output check failed: {exc}"
    return result


def main() -> int:
    name, seed, toy, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
    try:
        result = operation(name, seed, toy, trace)
    except Exception:
        result = {"error": traceback.format_exc()}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""psae benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload {train,score,prep} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` next
to this directory. ``--trace 0`` measures the end-to-end metrics: set-up
is repeated and its median reported, then timed passes run until
``--seconds`` is used up (at least one). Every timed pass starts after
``os.sync()``, so write-back and discards left by earlier runs or input
generation do not land inside it. ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics, including the
tracing overhead between the two. Every pass is checked. The last stdout
line is one JSON object; the lines before it give each metric with its
unit and sample count, and the environment. Inputs and outputs live in
``.perfbench_work/`` (removed at exit); results and spans are written to
``.perfbench_out/``.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "throughput_per_s": "1/s",
                    "latency_ms": "ms"}


def import_psae():
    """A fresh import of the package: every psae module is dropped first,
    so each set-up pays the package's own import again."""
    for name in [n for n in sys.modules if n == "psae" or n.startswith("psae.")]:
        del sys.modules[name]
    psae = importlib.import_module("psae")
    importlib.import_module("psae.cli")
    return psae


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def blas_threads(numpy) -> int | None:
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    import ctypes
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "psae").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def checked(workload, psae, state, data, result, first, checks) -> None:
    """A check that raises is a failed check, not a lost run."""
    try:
        workload.check(psae, state, data, result, first, checks)
    except Exception as exc:  # noqa: BLE001 - reported as a failed outcome
        traceback.print_exc()
        checks.expect(False, f"{workload.name} check raised {exc!r}")


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import layers
    import spans
    from workloads import Checks

    setup_times = []
    for i in range(SETUP_REPEATS):
        setup_dir = work / f"setup{i}"
        setup_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        psae = import_psae()
        state = workload.setup(psae, setup_dir)
        setup_times.append(time.perf_counter() - t0)
    data = workload.make_inputs(psae, seed, work)
    workload.warm_up(psae, state, data)
    checks = Checks()
    passes = []
    first = None
    if not trace:
        started = time.perf_counter()
        while True:
            os.sync()
            p = workload.run_pass(psae, state, data, work, len(passes))
            checked(workload, psae, state, data, p, first, checks)
            first = first or p
            passes.append(p)
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) > seconds:
                break
        found = workload.metrics(passes, data)
        metrics = {"setup_s": (statistics.median(setup_times), len(setup_times)),
                   "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                   "throughput_per_s": found["throughput_per_s"],
                   "latency_ms": found["latency_ms"]}
        extra = found["extra"]
        recorder = None
    else:
        os.sync()
        plain = workload.run_pass(psae, state, data, work, 0)
        checked(workload, psae, state, data, plain, None, checks)
        recorder = spans.Recorder()
        tracer = layers.Tracer(psae, recorder)
        if workload.trace_memory:
            tracemalloc.start()
        os.sync()
        tracer.install()
        try:
            with recorder.operation(f"bench.{workload.name}"):
                traced = workload.run_pass(psae, state, data, work, 1)
        finally:
            tracer.restore()
            tracemalloc.stop()
        checked(workload, psae, state, data, traced, plain, checks)
        passes = [plain, traced]
        overhead = (traced.wall_s / plain.wall_s - 1.0) * 100.0
        metrics = {name: (value, 1) for name, value in tracer.metrics(overhead).items()}
        extra = {"untraced_pass_s": (plain.wall_s, 1), "traced_pass_s": (traced.wall_s, 1)}
    return {"metrics": metrics, "extra": extra, "checks": checks, "recorder": recorder,
            "setup_times": setup_times, "pass_walls": [p.wall_s for p in passes]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "score", "prep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psae" / "__init__.py").is_file():
        print(f"error: no psae package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        work.mkdir(parents=True)
        result = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    env = environment(args.seed)
    checks = result["checks"]
    units = END_TO_END_UNITS if not args.trace else {n: u for n, u, _ in layers.PER_LAYER}
    out_dir.mkdir(exist_ok=True)
    if result["recorder"] is not None:
        result["recorder"].write(out_dir / f"spans-{tag}.tsv")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, n) in {**result["metrics"], **result["extra"]}.items():
        unit = units.get(name, "")
        print(f"metric {name}={value} {unit} samples={n}".replace("  ", " "))
    error_rate = checks.failed / max(1, checks.attempted)
    print(f"metric error_rate={error_rate} ratio samples={checks.attempted}")
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}")
    correct = checks.failed == 0
    line = {"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, (value, _) in result["metrics"].items()}}
    record = {**line, "env": env, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "error_rate": error_rate,
              "extra": {k: v for k, (v, _) in result["extra"].items()},
              "setup_times_s": result["setup_times"], "pass_walls_s": result["pass_walls"],
              "problems": checks.problems}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

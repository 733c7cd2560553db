#!/usr/bin/env python3
"""Closed-loop CLI benchmark for schattenlab.

One client drives ``schattenlab.cli.run(argv)`` in process and sends the
next request only after the previous one returns.  Every output is checked
by an independent NumPy oracle (``oracles.py``).  Run from the root of a
checkout, which holds the package sources under ``src/``:

    python3 perfbench/run.py --workload sign-average --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics: it runs one request sequence untraced and then traced
(``spans.py``), and times each kernel on every importable backend
(``backends.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full records go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

# oracles, spans and backends load NumPy, so they are imported inside the
# functions that use them: cap_blas_threads must run before NumPy loads.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7

#: The tail latency is the highest percentile with this many samples above it.
TAIL_BEYOND = 10

#: Requests per spot-check kind that also get the oracle's expensive exact check.
SPOT_CHECKS = 2

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    req: workloads.Request
    rc: int | None
    stdout: str
    error: str
    latency: float


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before NumPy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(cap)
    return cap


def import_package():
    """Import ``schattenlab`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import schattenlab
    import schattenlab.cli

    if Path(schattenlab.__file__).resolve().parent != SRC / "schattenlab":
        raise ImportError(f"schattenlab imported from {schattenlab.__file__}, not from {SRC}")
    return schattenlab


def setup_probe(workload: str, seed: int) -> None:
    import_package()
    workloads.build_requests(workload, seed, 0, 2)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its built request list."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def call(cli, req: workloads.Request) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(req.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a request that raises is counted as failed; the loop goes on
        rc, error = None, repr(exc)
    latency = time.perf_counter() - t0
    return Outcome(req, rc, out.getvalue(), error or err.getvalue(), latency)


def rotation(cli, workload: str, seed: int, number: int, tracer=None) -> tuple[list[Outcome], float]:
    """Run rotation ``number`` of the workload; return its outcomes and wall time."""
    reqs = workloads.build_requests(workload, seed, number * len(workloads.ROTATIONS[workload]), 1)
    t0 = time.perf_counter()
    outcomes = []
    for req in reqs:
        if tracer is not None:
            tracer.request = req.index
        outcomes.append(call(cli, req))
    return outcomes, time.perf_counter() - t0


def verify(outcomes: list[Outcome]) -> list[bool]:
    import oracles

    spot = Counter()
    ok = []
    for o in outcomes:
        exact = o.req.kind in oracles.SPOT_KINDS and spot[o.req.kind] < SPOT_CHECKS
        spot[o.req.kind] += exact
        problems = oracles.judge(o.req, o.rc, o.stdout, o.error, exact=exact)
        if problems:
            print(f"FAILED request {o.req.index} {' '.join(o.req.argv)}: {'; '.join(problems[:3])}", file=sys.stderr)
        ok.append(not problems)
    return ok


def self_test(warm: list[Outcome]) -> list[str]:
    """Each oracle must pass its genuine output and reject a corrupted row."""
    import oracles

    problems = []
    for o in {o.req.kind: o for o in warm}.values():
        if oracles.judge(o.req, o.rc, o.stdout, o.error, exact=True):
            problems.append(f"{o.req.kind}: genuine output fails its oracle")
        elif not oracles.judge(o.req, 0, oracles.corrupt(o.req.kind, o.stdout), "", exact=True):
            problems.append(f"{o.req.kind}: corrupted {oracles.CORRUPTIONS[o.req.kind][0]} passed its oracle")
    if not oracles.judge(warm[0].req, 3, warm[0].stdout, ""):
        problems.append("exit code 3 was not counted as failed")
    return problems


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the latency with exactly TAIL_BEYOND samples above it.

    The percentile follows the sample count, so the value has no jump when a
    slower or faster machine changes the number of requests in a run.
    """
    n = len(latencies)
    rank = max(n - TAIL_BEYOND, 1)
    return 100.0 * rank / n, sorted(latencies)[rank - 1]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, package, blas_threads: int) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
        "argv": sys.argv,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, in-process schattenlab.cli.run",
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "openblas": openblas,
        "kernel_backend": package.kernel_backend,
        "schattenlab": package.__version__,
    }


def per_kind(outcomes: list[Outcome]) -> dict:
    kinds: dict[str, list[float]] = {}
    for o in outcomes:
        kinds.setdefault(o.req.kind, []).append(o.latency)
    return {kind: {"requests": len(lat), "p50_s": statistics.median(lat)} for kind, lat in kinds.items()}


def end_to_end(args, package) -> tuple[dict, int, int, list[str], dict]:
    cli = package.cli
    warm, warm_wall = rotation(cli, args.workload, args.seed, 0)
    # Set-up probes are spread over the timed window, between rotations and
    # outside the loop's clock, so that their median sees the same machine
    # load as the requests do.
    every = max(1, round(args.seconds / warm_wall / SETUP_PROBES))
    setup: list[float] = []
    outcomes: list[Outcome] = []
    wall = 0.0
    number = 1
    while wall < args.seconds:
        if (number - 1) % every == 0 and len(setup) < SETUP_PROBES:
            setup.append(measure_setup(args.workload, args.seed))
        done, seconds = rotation(cli, args.workload, args.seed, number)
        outcomes += done
        wall += seconds
        number += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args.workload, args.seed))
    ok = verify(outcomes)
    problems = self_test(warm)
    latencies = [o.latency for o in outcomes]
    q, tail_s = tail(latencies)
    metrics = {
        "ops_per_s": sum(ok) / wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"op_tail_s is p{q:.4g} of {len(latencies)} requests over {wall:.3f} s")
    print(f"error_rate = {(len(ok) - sum(ok)) / len(ok):.6g} ({len(ok) - sum(ok)} of {len(ok)} requests failed)")
    print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup)}")
    extra = {"per_kind": per_kind(outcomes), "tail_percentile": q, "wall_s": wall, "setup_probes_s": setup}
    return metrics, len(ok), len(ok) - sum(ok), problems, extra


def per_layer(args, package) -> tuple[dict, int, int, list[str], dict]:
    import backends
    import spans

    cli = package.cli
    warm, warm_wall = rotation(cli, args.workload, args.seed, 0)
    timings, problems = backends.time_backends(package.__name__, args.seed)
    for backend, kernels in timings.items():
        for kernel, seconds in kernels.items():
            print(f"backend {backend:8s} {backends.TASKS[kernel][0]:40s} {seconds:.4f} s")
    problems += self_test(warm)

    # The same requests untraced and traced, alternating by rotation so that
    # drift in machine speed cancels; the wall-time ratio is the overhead.
    rotations = max(1, round(args.seconds / 2.0 / warm_wall))
    tracer = spans.Tracer()
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    for number in range(1, rotations + 1):
        outcomes, wall = rotation(cli, args.workload, args.seed, number)
        plain += outcomes
        plain_wall += wall
        tracer.install(package)
        try:
            outcomes, wall = rotation(cli, args.workload, args.seed, number, tracer=tracer)
        finally:
            tracer.uninstall()
        traced += outcomes
        traced_wall += wall
    ok = verify(plain)
    ok += [a.rc == b.rc and a.stdout == b.stdout for a, b in zip(plain, traced)]
    if not all(ok[len(plain):]):
        print("FAILED traced outputs differ from untraced outputs", file=sys.stderr)

    metrics = spans.layer_metrics(tracer.spans)
    metrics["traced_wall_s"] = traced_wall
    metrics["untraced_wall_s"] = plain_wall
    metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    for kernel in spans.KERNELS:
        metrics[f"kernels_py.{kernel}.task_s"] = timings["python"][kernel]
    metrics["kernel_backends_timed"] = len(timings)
    extra = {"per_kind": per_kind(plain), "backend_timings_s": timings, "spans": len(tracer.spans)}
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz", "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request", "note"], "spans": tracer.spans}, fh)
    return metrics, len(ok), len(ok) - sum(ok), problems, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROTATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    blas_threads = cap_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    package = import_package()
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, problems, extra = measure(args, package)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    record = {"provenance": provenance(args, package, blas_threads), "metrics": metrics, **extra}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("provenance " + json.dumps(record["provenance"]))
    units = {name: END_TO_END_UNITS[name] if not args.trace else layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("items_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

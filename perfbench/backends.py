"""Kernel timings on every importable backend.

The NumPy backend (``_kernels_py``) is always imported; the compiled one
(``_kernels``) only when it is present.  Both are imported directly, so
the selection made through ``SCHATTENLAB_PURE_PYTHON`` plays no part.
Every result is checked against an SVD reference, and the backends
against each other, to ``AGREE_RTOL``.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

import oracles

AGREE_RTOL = 1e-9

REPEATS = 3


def _inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def cgauss(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    z16 = cgauss(16, 16)
    np.fill_diagonal(z16, 0.0)
    return {"a44": cgauss(4, 4), "ts": cgauss(12, 6, 6), "z16": z16, "batch": cgauss(20_000, 3, 3)}


#: kernel -> (task label, call returning one number, SVD reference of that number)
TASKS = {
    "sign_enum_ppower_sum": (
        "sign patterns 4x4 (2^16), p=3",
        lambda k, x: k.sign_enum_ppower_sum(x["a44"], 3.0),
        lambda x: float(np.sum(oracles.ppower(oracles.sign_stack(16).reshape(-1, 4, 4) * x["a44"], 3.0))),
    ),
    "sign_vector_enum_ppower_sum": (
        "sign vectors k=12 of 6x6 (2^12), p=3",
        lambda k, x: k.sign_vector_enum_ppower_sum(x["ts"], 3.0),
        lambda x: float(np.sum(oracles.ppower(np.tensordot(oracles.sign_stack(12), x["ts"], axes=(1, 0)), 3.0))),
    ),
    "balanced_subset_scan": (
        "balanced scan 16x16 (6435 subsets), p=4",
        lambda k, x: k.balanced_subset_scan(x["z16"], 4.0)[2],
        lambda x: float(np.mean(oracles.cross_ppowers(x["z16"], oracles.balanced_sides(16), 4.0))),
    ),
    "schatten_ppower_batch": (
        "batch p-power 20k of 3x3, p=2.5",
        lambda k, x: float(np.sum(k.schatten_ppower_batch(x["batch"], 2.5))),
        lambda x: float(np.sum(oracles.ppower(x["batch"], 2.5))),
    ),
}


def importable(package: str) -> dict:
    """backend name -> kernel module, for every backend that imports here."""
    found = {"python": importlib.import_module(f"{package}._kernels_py")}
    try:
        found["compiled"] = importlib.import_module(f"{package}._kernels")
    except ImportError:
        pass
    return found


def time_backends(package: str, seed: int) -> tuple[dict, list[str]]:
    """Best-of-``REPEATS`` seconds per (backend, kernel), and any disagreement."""
    x = _inputs(seed)
    timings: dict[str, dict[str, float]] = {}
    values: dict[str, dict[str, float]] = {}
    for backend, module in importable(package).items():
        timings[backend], values[backend] = {}, {}
        for kernel, (_, call, _) in TASKS.items():
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                value = call(module, x)
                best = min(best, time.perf_counter() - t0)
            timings[backend][kernel], values[backend][kernel] = best, value
    problems = []
    for kernel, (label, _, reference) in TASKS.items():
        want = reference(x)
        for backend in values:
            got = values[backend][kernel]
            if not abs(got - want) <= AGREE_RTOL * abs(want):
                problems.append(f"{backend} {label}: {got!r} vs SVD reference {want!r}")
            base = values["python"][kernel]
            if not abs(got - base) <= AGREE_RTOL * abs(base):
                problems.append(f"{backend} {label}: {got!r} vs python backend {base!r}")
    return timings, problems

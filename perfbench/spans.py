"""Outside-in span tracer for the ``schattenlab`` package.

``Tracer.install`` wraps the public functions of each package module, the
selected kernel backend's four kernels, and ``numpy.linalg.svd`` /
``eigvalsh`` beneath them.  A name is replaced in every package module that
holds it (``from .linalg import schatten_norm`` makes a copy), so no call
escapes the trace; ``uninstall`` puts every original back.  Nothing in the
package is edited.

A span is ``[name, start, end, parent, request, note]``: ``parent`` indexes
the enclosing span (-1 at the root), ``request`` is the benchmark's request
index, and ``note`` holds the count taken at that boundary (items
evaluated, solver iterations, ...).  Spans stay in memory until
``layer_metrics`` reduces them and the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

#: Package modules whose public functions are traced; the layer names.
LAYERS = ("linalg", "norms", "signs", "projection", "embedding", "paving", "cli")

KERNELS = ("schatten_ppower_batch", "sign_enum_ppower_sum", "sign_vector_enum_ppower_sum", "balanced_subset_scan")


def _arg(args, kwargs, pos: int, name: str, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _svd_flops(args, kwargs, result) -> float:
    """LAPACK flop count from shapes (Golub & Van Loan, R-SVD), x4 for complex."""
    a = np.asarray(args[0])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    batch = math.prod(a.shape[:-2])
    if _arg(args, kwargs, 2, "compute_uv", True):
        flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    else:
        flops = 4.0 * m * n * n - 4.0 / 3.0 * n**3
    return batch * flops * (4.0 if np.iscomplexobj(a) else 1.0)


def _sign_vectors(args, kwargs, result) -> int:
    if _arg(args, kwargs, 2, "mode", "exhaustive") == "exhaustive":
        return 1 << np.shape(args[0])[0]
    return _arg(args, kwargs, 3, "trials", 10_000)


#: span name -> count taken from (args, kwargs, result) when the call returns.
NOTES = {
    "kernels.schatten_ppower_batch": lambda args, kwargs, result: len(result),
    "kernels.sign_enum_ppower_sum": lambda args, kwargs, result: 1 << math.prod(np.shape(args[0])),
    "kernels.sign_vector_enum_ppower_sum": lambda args, kwargs, result: 1 << np.shape(args[0])[0],
    "kernels.balanced_subset_scan": lambda args, kwargs, result: result[3],
    "lapack.svd": _svd_flops,
    "lapack.eigvalsh": lambda args, kwargs, result: math.prod(np.shape(args[0])[:-2]),
    "norms.z_tilde_lower": lambda args, kwargs, result: (result.iterations, result.converged),
    "signs.rademacher_average": lambda args, kwargs, result: result.samples,
    "embedding.sign_average_sum": _sign_vectors,
    "paving.find_balanced_split": lambda args, kwargs, result: (result.samples, "fallback" in result.strategy),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [m for name, m in sys.modules.items() if name == prefix or name.startswith(prefix + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for attr, fn in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        backend = package._backend.kernels
        for attr in KERNELS:
            fn = getattr(backend, attr)
            wrappers[id(fn)] = (fn, self._wrap(f"kernels.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for attr in ("svd", "eigvalsh"):
            self._patch(np.linalg, attr, self._wrap(f"lapack.{attr}", getattr(np.linalg, attr)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, counts, busy and self seconds reduced from the spans.

    Self time is a span's duration minus the durations of its direct
    children; a layer's ``self_s`` sums it over the layer's spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    notes = defaultdict(list)
    self_s = defaultdict(float)
    for (name, start, end, _, _, note), inner in zip(spans, child):
        calls[name] += 1
        busy[name] += end - start
        self_s[name.split(".")[0]] += end - start - inner
        if note is not None:
            notes[name].append(note)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for kernel in KERNELS:
        name = f"kernels.{kernel}"
        items = sum(notes[name])
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.items"] = items
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.items_per_s"] = ratio(items, busy[name])
    out["lapack.svd.calls"] = calls["lapack.svd"]
    out["lapack.svd.s"] = busy["lapack.svd"]
    out["lapack.svd.flops_computed"] = sum(notes["lapack.svd"])
    out["lapack.eigvalsh.calls"] = calls["lapack.eigvalsh"]
    out["lapack.eigvalsh.matrices"] = sum(notes["lapack.eigvalsh"])
    out["lapack.eigvalsh.s"] = busy["lapack.eigvalsh"]
    solves = notes["norms.z_tilde_lower"]
    out["norms.z_tilde_lower.calls"] = calls["norms.z_tilde_lower"]
    out["norms.z_tilde_lower.busy_s"] = busy["norms.z_tilde_lower"]
    out["norms.solver_iterations"] = sum(it for it, _ in solves)
    out["norms.solver_converged_ratio"] = ratio(sum(ok for _, ok in solves), len(solves))
    out["norms.self_s"] = self_s["norms"]
    out["signs.rademacher_average.calls"] = calls["signs.rademacher_average"]
    out["signs.patterns"] = sum(notes["signs.rademacher_average"])
    out["signs.self_s"] = self_s["signs"]
    out["embedding.sign_average_sum.calls"] = calls["embedding.sign_average_sum"]
    out["embedding.sign_vectors"] = sum(notes["embedding.sign_average_sum"])
    out["embedding.self_s"] = self_s["embedding"]
    splits = notes["paving.find_balanced_split"]
    candidates = sum(n for n, _ in splits)
    out["paving.find_balanced_split.calls"] = calls["paving.find_balanced_split"]
    out["paving.subsets_scanned"] = out["kernels.balanced_subset_scan.items"]
    out["paving.candidates"] = candidates
    out["paving.split_accept_ratio"] = ratio(len(splits), candidates)
    out["paving.fallbacks"] = sum(fell for _, fell in splits)
    out["paving.self_s"] = self_s["paving"]
    out["linalg.schatten_norm.calls"] = calls["linalg.schatten_norm"]
    for layer in ("linalg", "projection", "cli"):
        out[f"{layer}.self_s"] = self_s[layer]
    return out

"""Request rotations for the closed-loop CLI benchmark.

Each workload is a fixed rotation of ``schattenlab`` CLI requests.  Request
``i`` of a run is rotation entry ``i % len(rotation)`` with a ``--seed``
derived from the benchmark's workload seed and ``i``, so one workload seed
always yields the same request sequence and every request draws fresh
matrices.

The rotations are sized so that each candidate optimisation target does
most of the work in one workload and almost none in another (see
``README.md`` for the measured shares).  Each rotation has five entries
whose latencies put the median inside one cluster of similar requests and
the p90 inside the slowest cluster, so both read steadily from run to run.

This module imports nothing heavy: the set-up probe times a fresh
interpreter from its first line up to a built request list.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_P_SPECTRAL = ["--p", "1.5", "--p", "3", "--p", "4", "--p", "6"]

#: kind -> CLI argv without ``--seed``; the kind names the oracle that checks it.
REQUESTS = {
    "fact2-exhaustive-p3": ["fact2", "--size", "4", "--trials", "1", "--p", "3"],
    "fact2-exhaustive-p4": ["fact2", "--size", "4", "--trials", "1", "--p", "4"],
    "fact2-montecarlo-p4": ["fact2", "--size", "6", "--trials", "1", "--mc-trials", "4000", "--p", "4"],
    "embedding-p3": ["embedding", "--k", "12", "--size", "6", "--trials", "1", "--p", "3"],
    "embedding-p4": ["embedding", "--k", "12", "--size", "6", "--trials", "1", "--p", "4"],
    "norms-192": ["norms", "--size", "192", *_P_SPECTRAL],
    "norms-512": ["norms", "--size", "512", *_P_SPECTRAL],
    "fact1": ["fact1", "--size", "96", "--trials", "4", "--p", "3", "--p", "4", "--p", "6"],
    "projection": ["projection", "--n", "2", "--trials", "4"],
    "paving-decay": ["paving-decay", "--size", "16", "--depth", "3"],
    "paving-find-greedy": ["paving-find", "--size", "24", "--strategy", "greedy"],
    "paving-find-random": ["paving-find", "--size", "16", "--strategy", "random"],
    "prop-average-p2": ["prop-average", "--size", "12", "--p", "2"],
    "prop-average-p4": ["prop-average", "--size", "12", "--p", "4"],
}

ROTATIONS = {
    # Sign enumerations: 2^16 patterns per exhaustive fact2, 2^12 sign vectors
    # (four times over) per embedding instance; SVD work is negligible.
    "sign-average": [
        "fact2-exhaustive-p3",
        "fact2-exhaustive-p4",
        "fact2-montecarlo-p4",
        "embedding-p3",
        "embedding-p4",
    ],
    # Dense SVDs up to 512x512 and the z_tilde_lower solver; no enumeration.
    # norms-192 appears twice so the median falls inside its cluster.
    "spectral": [
        "norms-192",
        "norms-512",
        "fact1",
        "projection",
        "norms-192",
    ],
    # Balanced-subset scans (masked 2m x 2m Gram stacks) and greedy/random
    # candidate batches of 24x24 and 16x16 cross parts.
    "paving": [
        "paving-decay",
        "paving-find-greedy",
        "paving-find-random",
        "prop-average-p2",
        "prop-average-p4",
    ],
}


@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    seed: int

    @property
    def argv(self) -> list[str]:
        return [*REQUESTS[self.kind], "--seed", str(self.seed)]


def request_seed(workload_seed: int, index: int) -> int:
    """CLI seed of request ``index``; a 31-bit hash of both arguments."""
    digest = hashlib.blake2b(f"{workload_seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") >> 1


def build_requests(workload: str, workload_seed: int, start: int, rotations: int) -> list[Request]:
    """``rotations`` whole rotations starting at request index ``start``."""
    kinds = ROTATIONS[workload]
    return [
        Request(i, kinds[i % len(kinds)], request_seed(workload_seed, i))
        for i in range(start, start + rotations * len(kinds))
    ]

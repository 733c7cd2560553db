"""Correctness oracles for every CLI request kind in the benchmark.

Each oracle regenerates the request's input with its own copy of the
seeded generators and checks the CSV rows with plain NumPy: SVDs, closed
forms and independent enumerations, never the package path under test.
Tolerances are relative to the compared quantities.

``judge`` returns the list of problems with one request's outcome; an
empty list means the request counts as correct.  ``corrupt`` damages one
output row per kind so the self-test can show every oracle rejects it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

#: Relative tolerance for a value recomputed by a different algorithm.
RTOL = 1e-9

#: Relative slack allowed on an inequality that holds exactly in theory.
BOUND_RTOL = 1e-12

#: A Monte-Carlo mean may sit this many standard errors from the exact value.
MC_SIGMAS = 6.0

#: Kinds whose oracle has an expensive exact check, run on a few requests only.
SPOT_KINDS = ("fact2-exhaustive-p3", "paving-decay")


# ---------------------------------------------------------------------------
# independent copies of the input generators


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _substream_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def _cgauss(seed: int, n: int, zero_diagonal: bool = False) -> np.ndarray:
    rng = _rng(seed)
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    if zero_diagonal:
        np.fill_diagonal(a, 0.0)
    return a


def sign_stack(bits: int) -> np.ndarray:
    """All 2^bits sign vectors, little-endian in the index (0 = all plus)."""
    idx = np.arange(1 << bits, dtype=np.int64)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(bits)) & 1)


# ---------------------------------------------------------------------------
# NumPy reference quantities


def ppower(mats: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norm to the p-th power, by SVD, for one matrix or a stack."""
    s = np.linalg.svd(mats, compute_uv=False)
    return np.sum(s**p, axis=-1)


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=1))


def _z(a: np.ndarray, p: float) -> float:
    return float(np.sum(_row_norms(a) ** p) ** (1.0 / p))


def _z_tilde_upper(a: np.ndarray, p: float) -> float:
    return float((_z(a, p) ** p + _z(a.conj().T, p) ** p) ** (1.0 / p))


def _sign_average_p4(a: np.ndarray) -> float:
    """Exact mean of ||R o A||_4^4 over all sign matrices R: z~_4(A)^4 - sum |a_ij|^4."""
    rows = np.sum(np.abs(a) ** 2, axis=1)
    cols = np.sum(np.abs(a) ** 2, axis=0)
    return float(np.sum(rows**2) + np.sum(cols**2) - np.sum(np.abs(a) ** 4))


def _sign_vector_average_p4(ts: np.ndarray) -> float:
    """Exact mean of ||sum_i e_i T_i||_4^4 over sign vectors e (pairing expansion)."""
    pij = np.einsum("iab,jac->ijbc", ts.conj(), ts)  # T_i* T_j
    gram = np.einsum("iibc->bc", pij)
    same = np.einsum("ijab,ijba->", pij, pij)
    swap = np.einsum("ijab,ijab->", pij, pij.conj())
    diag = np.einsum("iiab,iiba->", pij, pij)
    return float(np.real(np.trace(gram @ gram) + same + swap - 2.0 * diag))


def _unit_norm_family(seed: int, k: int, n: int, p: float) -> np.ndarray:
    rng = _rng(seed)
    ts = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return ts / (ppower(ts, p) ** (1.0 / p))[:, None, None]


def balanced_sides(dim: int) -> np.ndarray:
    """Boolean rows marking every size-dim/2 subset that contains index 0."""
    m = dim // 2
    combos = np.array([(0, *c) for c in itertools.combinations(range(1, dim), m - 1)])
    side = np.zeros((len(combos), dim), dtype=bool)
    side[np.arange(len(combos))[:, None], combos] = True
    return side


def cross_ppowers(a: np.ndarray, sides: np.ndarray, p: float) -> np.ndarray:
    cross = sides[:, :, None] ^ sides[:, None, :]
    return ppower(np.where(cross, a, 0.0), p)


# ---------------------------------------------------------------------------
# checks


class _Checks:
    def __init__(self):
        self.problems: list[str] = []

    def close(self, label: str, got: float, want: float, scale: float | None = None) -> None:
        """``|got - want| <= RTOL * scale``, scale defaulting to the larger magnitude."""
        scale = max(abs(got), abs(want)) if scale is None else scale
        if not abs(got - want) <= RTOL * scale:
            self.problems.append(f"{label}: got {got!r}, expected {want!r}")

    def at_least(self, label: str, got: float, floor: float, scale: float | None = None) -> None:
        scale = abs(floor) if scale is None else scale
        if not got >= floor - BOUND_RTOL * scale:
            self.problems.append(f"{label}: {got!r} below {floor!r}")

    def equal(self, label: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{label}: got {got!r}, expected {want!r}")


def _arg(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _ps(argv: list[str], default: float = 4.0) -> list[float]:
    ps = [float(argv[i + 1]) for i, tok in enumerate(argv) if tok == "--p"]
    return ps or [default]


def _fact2(req, rows, c: _Checks, exact: bool) -> None:
    size = int(_arg(req.argv, "--size", "3"))
    trials = int(_arg(req.argv, "--trials", "10"))
    ps = _ps(req.argv)
    c.equal("row count", len(rows), trials * len(ps))
    exhaustive = size * size <= 20
    for i, row in enumerate(rows):
        trial, p = i // len(ps), ps[i % len(ps)]
        seed = _substream_seed(req.seed, trial)
        c.equal("seed", int(row["seed"]), seed)
        a = _cgauss(seed, size)
        root, zt = float(row["root"]), float(row["z_tilde"])
        mean = root**p
        c.close("z_tilde", zt, _z_tilde_upper(a, p))
        c.close("ratio", float(row["ratio"]), root / zt)
        cf4 = _sign_average_p4(a)
        if exhaustive:
            c.equal("mode", row["mode"], "exhaustive")
            c.equal("samples", int(row["samples"]), 1 << (size * size))
            c.equal("std_error", float(row["std_error"]), 0.0)
            # Khintchine's easy direction for the Rademacher sum of the entries
            c.at_least("mean vs row/column ell_p", mean, max(_z(a, p), _z(a.T, p)) ** p)
            if p == 4.0:
                c.close("mean vs closed form", mean, cf4)
            elif 2.0 < p < 4.0:
                # Hoelder between the p = 2 and p = 4 powers of the singular values, then Jensen
                cap = np.linalg.norm(a) ** (4.0 - p) * cf4 ** ((p - 2.0) / 2.0)
                c.at_least("Hoelder cap vs mean", float(cap), mean)
                if exact:
                    signs = sign_stack(size * size).reshape(-1, size, size)
                    c.close("mean vs SVD enumeration", mean, float(np.mean(ppower(signs * a, p))))
        else:
            c.equal("mode", row["mode"], "monte-carlo")
            c.equal("samples", int(row["samples"]), int(_arg(req.argv, "--mc-trials", "10000")))
            c.equal("closed form needs p", p, 4.0)
            err = float(row["std_error"])
            if not (err > 0.0 and abs(mean - cf4) <= MC_SIGMAS * err):
                c.problems.append(f"Monte-Carlo mean {mean!r} is not within {MC_SIGMAS} x {err!r} of {cf4!r}")


def _embedding(req, rows, c: _Checks, exact: bool) -> None:
    k, n = int(_arg(req.argv, "--k", "0")), int(_arg(req.argv, "--size", "0"))
    trials = int(_arg(req.argv, "--trials", "10"))
    ps = _ps(req.argv)
    c.equal("row count", len(rows), trials * len(ps))
    signs = sign_stack(k)
    for i, row in enumerate(rows):
        trial, p = i // len(ps), ps[i % len(ps)]
        seed = _substream_seed(req.seed, trial)
        c.equal("seed", int(row["seed"]), seed)
        c.equal("k, n", (int(row["k"]), int(row["n"])), (k, n))
        ts = _unit_norm_family(seed, k, n, p)
        ave = float(row["sign_average"])
        c.close("sign_average vs SVD enumeration", ave, float(np.mean(ppower(np.tensordot(signs, ts, axes=(1, 0)), p))))
        if p == 4.0:
            c.close("sign_average vs closed form", ave, _sign_vector_average_p4(ts))
        # eigenvalues of sum T_i* T_i are the squared singular values of the stacked T_i
        s = np.linalg.svd(ts.reshape(k * n, n), compute_uv=False)
        trace_power = float(np.sum(s**p))
        slack = float(row["khintchine_slack"])
        c.close("khintchine_slack", slack, ave - trace_power if p > 2.0 else trace_power - ave, scale=ave)
        c.at_least("khintchine_slack", slack, 0.0, scale=ave)
        rank = int(np.count_nonzero(s**2 > 1e-9 * s[0] ** 2))
        c.equal("rank", int(row["rank"]), rank)
        constant = ave / k
        c.close("constant", float(row["constant"]), constant)
        bound = constant ** (-2.0 / (p - 2.0) if p > 2.0 else 2.0 / (2.0 - p)) * k
        c.close("bound", float(row["bound"]), bound)
        c.at_least("rank vs bound", rank, bound)
        c.equal("holds", row["holds"], "True")


def _norms(req, rows, c: _Checks, exact: bool) -> None:
    a = _cgauss(req.seed, int(_arg(req.argv, "--size", "0")))
    ps = _ps(req.argv)
    c.equal("row count", len(rows), len(ps))
    s = np.linalg.svd(a, compute_uv=False)
    for row, p in zip(rows, ps):
        c.equal("seed, p", (int(row["seed"]), float(row["p"])), (req.seed, p))
        schatten = float(np.sum(s**p) ** (1.0 / p))
        c.close("schatten", float(row["schatten"]), schatten)
        c.close("z", float(row["z"]), _z(a, p))
        zt = float(row["z_tilde"])
        if p > 2.0:
            c.equal("z_tilde_kind", row["z_tilde_kind"], "upper")
            c.close("z_tilde", zt, _z_tilde_upper(a, p))
        else:
            # below: ||B||_q <= Z_q(B) for q <= 2 and the triangle inequality; above: B = A or B = 0
            c.equal("z_tilde_kind", row["z_tilde_kind"], "lower")
            c.at_least("z_tilde vs 2^(1/q-1) ||A||_q", zt, 2.0 ** (1.0 / p - 1.0) * schatten)
            c.at_least("min(Z_q(A), Z_q(A*)) vs z_tilde", min(_z(a, p), _z(a.T, p)), zt)


def _fact1(req, rows, c: _Checks, exact: bool) -> None:
    size, trials = int(_arg(req.argv, "--size", "6")), int(_arg(req.argv, "--trials", "100"))
    ps = _ps(req.argv)
    c.equal("row count", len(rows), trials * len(ps))
    for i, row in enumerate(rows):
        trial, p = i // len(ps), ps[i % len(ps)]
        seed = _substream_seed(req.seed, trial)
        c.equal("instance, seed", (int(row["instance"]), int(row["seed"])), (trial, seed))
        a = _cgauss(seed, size)
        schatten = float(ppower(a, p) ** (1.0 / p))
        z_slack, zt_slack = float(row["z_slack"]), float(row["z_tilde_slack"])
        c.close("z_slack", z_slack, schatten - _z(a, p), scale=schatten)
        c.close("z_tilde_slack", zt_slack, 2.0 ** (1.0 / p) * schatten - _z_tilde_upper(a, p), scale=schatten)
        c.at_least("z_slack", z_slack, 0.0, scale=schatten)
        c.at_least("z_tilde_slack", zt_slack, 0.0, scale=schatten)


def _projection(req, rows, c: _Checks, exact: bool) -> None:
    n, trials = int(_arg(req.argv, "--n", "2")), int(_arg(req.argv, "--trials", "8"))
    ps = _ps(req.argv)
    c.equal("row count", len(rows), len(ps))
    count = 1 << (n * n)
    signs = sign_stack(n * n).reshape(count, n, n)
    idx = np.arange(count)
    for row, p in zip(rows, ps):
        c.equal("seed, n", (int(row["seed"]), int(row["n"])), (req.seed, n))
        c.close("sqrt_p", float(row["sqrt_p"]), math.sqrt(p))
        scale = max(float(np.max(np.abs(_cgauss(_substream_seed(req.seed, t), n)))) for t in range(trials))
        if not float(row["roundtrip_max_err"]) <= 1e-14 * scale:
            c.problems.append(f"roundtrip_max_err {row['roundtrip_max_err']} above 1e-14 x {scale}")
        c.at_least("projection_norm_lb", float(row["projection_norm_lb"]), 1.0)
        if p > 2.0:
            slacks, norms = [], []
            for t in range(trials):
                dense = _cgauss(_substream_seed(_substream_seed(req.seed, t), 1), n * count)
                blocks = dense.reshape(count, n, count, n)[idx, :, idx, :]
                average = np.mean(signs * blocks, axis=0)
                norm = float(ppower(dense, p) ** (1.0 / p))
                slacks.append(norm - 2.0 ** (n * n / p) * _z(average, p))
                norms.append(norm)
            got = float(row["min_row_norm_slack"])
            c.close("min_row_norm_slack", got, min(slacks), scale=max(norms))
            c.at_least("min_row_norm_slack", got, 0.0, scale=max(norms))


def _sigma_sides(text: str, dim: int) -> np.ndarray:
    side = np.zeros(dim, dtype=bool)
    side[[int(i) - 1 for i in text.split("|")]] = True
    return side


def _paving_find(req, rows, c: _Checks, exact: bool) -> None:
    size = int(_arg(req.argv, "--size", "0"))
    a = _cgauss(req.seed, size, zero_diagonal=True)
    ps = _ps(req.argv)
    c.equal("row count", len(rows), len(ps))
    for row, p in zip(rows, ps):
        c.equal("seed", int(row["seed"]), req.seed)
        if not row["strategy"].startswith(_arg(req.argv, "--strategy", "exhaustive")):
            c.problems.append(f"strategy {row['strategy']!r}")
        side = _sigma_sides(row["sigma"], size)
        c.equal("balanced sigma", int(side.sum()), size // 2)
        cross = np.where(side[:, None] ^ side[None, :], a, 0.0)
        total = float(ppower(a, p))
        v_power = float(row["v_power"])
        c.close("v_power", v_power, float(ppower(cross, p)))
        c.at_least("v_power vs 2^-p ||A||_p^p", v_power, 2.0**-p * total)
        original = total ** (1.0 / p)
        c.close("original_norm", float(row["original_norm"]), original)
        paved = float(row["paved_norm"])
        c.close("paved_norm", paved, float(ppower(a - cross, p) ** (1.0 / p)))
        bound = (1.0 - 2.0**-p) ** (1.0 / p) * original
        c.close("guaranteed_bound", float(row["guaranteed_bound"]), bound)
        c.at_least("guaranteed_bound vs paved_norm", bound, paved)


def _paving_decay(req, rows, c: _Checks, exact: bool) -> None:
    size, depth = int(_arg(req.argv, "--size", "0")), int(_arg(req.argv, "--depth", "4"))
    a = _cgauss(req.seed, size, zero_diagonal=True)
    ps = _ps(req.argv)
    c.equal("row count", len(rows), depth * len(ps))
    for i, row in enumerate(rows):
        p, d = ps[i // depth], i % depth + 1
        c.equal("seed, depth", (int(row["seed"]), int(row["depth"])), (req.seed, d))
        c.equal("parts", int(row["parts"]), min(1 << d, size))
        original = float(ppower(a, p) ** (1.0 / p))
        c.close("original_norm", float(row["original_norm"]), original)
        bound = (1.0 - 2.0**-p) ** (d / p) * original
        c.close("guaranteed_bound", float(row["guaranteed_bound"]), bound)
        paved = float(row["paved_norm"])
        c.at_least("guaranteed_bound vs paved_norm", bound, paved)
        if d > 1:
            # pinching a finer partition never raises a Schatten norm
            c.at_least("paved_norm at the previous depth", float(rows[i - 1]["paved_norm"]), paved)
        elif exact and _arg(req.argv, "--strategy", "exhaustive") == "exhaustive":
            sides = balanced_sides(size)
            best = sides[int(np.argmax(cross_ppowers(a, sides, p)))]
            diagonal = np.where(best[:, None] ^ best[None, :], 0.0, a)
            c.close("depth-1 paved_norm vs SVD scan", paved, float(ppower(diagonal, p) ** (1.0 / p)))


def _prop_average(req, rows, c: _Checks, exact: bool) -> None:
    size = int(_arg(req.argv, "--size", "0"))
    a = _cgauss(req.seed, size, zero_diagonal=True)
    m = size // 2
    ps = _ps(req.argv)
    c.equal("row count", len(rows), len(ps))
    for row, p in zip(rows, ps):
        c.equal("seed, m, subsets", (int(row["seed"]), int(row["m"]), int(row["subsets"])), (req.seed, m, math.comb(size, m)))
        total = float(ppower(a, p))
        c.close("total_ppower", float(row["total_ppower"]), total)
        lb2, sharp = 2.0**-p * total, (m / (4.0 * m - 2.0)) ** (p / 2.0) * total
        c.close("lower_bound_2p", float(row["lower_bound_2p"]), lb2)
        c.close("lower_bound_sharp", float(row["lower_bound_sharp"]), sharp)
        average = float(row["average"])
        if p == 2.0:
            # each off-diagonal entry crosses in a share m/(2m-1) of balanced splits
            c.close("average vs m/(2m-1) ||A||_F^2", average, m / (2.0 * m - 1.0) * float(np.sum(np.abs(a) ** 2)))
        else:
            c.close("average vs SVD enumeration", average, float(np.mean(cross_ppowers(a, balanced_sides(size), p))))
        c.at_least("average vs lower bounds", average, max(lb2, sharp))
        c.equal("identities_ok", row["identities_ok"], "True")


_ORACLES = {
    "fact2": _fact2,
    "embedding": _embedding,
    "norms": _norms,
    "fact1": _fact1,
    "projection": _projection,
    "paving-find": _paving_find,
    "paving-decay": _paving_decay,
    "prop-average": _prop_average,
}


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def judge(req, rc: int | None, stdout: str, error: str, exact: bool = False) -> list[str]:
    """Problems with one request's outcome (exit code, CLI output, exception)."""
    if error:
        return [f"raised {error}"]
    if rc != 0:
        return [f"exit code {rc}"]
    checks = _Checks()
    try:
        _ORACLES[req.argv[0]](req, parse_rows(stdout), checks, exact)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        checks.problems.append(f"malformed output: {exc!r}")
    return checks.problems


#: kind -> (column, factor): the damage each self-test applies to the first row.
CORRUPTIONS = {
    "fact2-exhaustive-p3": ("root", 1.0 + 1e-6),
    "fact2-exhaustive-p4": ("root", 1.0 + 1e-6),
    "fact2-montecarlo-p4": ("root", 1.5),
    "embedding-p3": ("sign_average", 1.0 + 1e-6),
    "embedding-p4": ("sign_average", 1.0 + 1e-6),
    "norms-192": ("schatten", 1.0 + 1e-6),
    "norms-512": ("schatten", 1.0 + 1e-6),
    "fact1": ("z_slack", 1.0 + 1e-6),
    "projection": ("projection_norm_lb", 0.5),
    "paving-decay": ("paved_norm", 1.0 + 1e-6),
    "paving-find-greedy": ("v_power", 1.0 + 1e-6),
    "paving-find-random": ("v_power", 1.0 + 1e-6),
    "prop-average-p2": ("average", 1.0 + 1e-6),
    "prop-average-p4": ("average", 1.0 + 1e-6),
}


def corrupt(kind: str, stdout: str) -> str:
    """``stdout`` with the kind's corruption applied to its first data row."""
    column, factor = CORRUPTIONS[kind]
    rows = parse_rows(stdout)
    rows[0][column] = format(float(rows[0][column]) * factor, ".17g")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()

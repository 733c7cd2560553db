"""Batch experiment runner.

Subcommands reproduce the library's inequalities as deterministic
tables: ``norms``, ``fact1``, ``fact2``, ``projection``, ``embedding``,
``paving-find``, ``paving-decay``, ``prop-average``.  Output is CSV or
JSON; every row carries the seed that regenerates it, floats are printed
with 17 significant digits, and rows are emitted in a fixed order so
identical configurations produce byte-identical files.

Exit codes: 0 success, 2 precondition failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import embedding as emb
from . import linalg, norms, paving, projection, signs


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(rows: list[dict], columns: list[str], out: str | None, fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in columns])
        text = buf.getvalue()
    else:
        text = json.dumps([{col: row.get(col) for col in columns} for row in rows], indent=2)
        text += "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return linalg.matrix_from_json(json.load(fh))


def _input_or_random(args, ensemble: str, size: int | None = None) -> tuple[np.ndarray, str]:
    """Matrix from --input, else a seeded draw; returns (matrix, seed label)."""
    if args.input:
        return _load_matrix(args.input), ""
    size = size if size is not None else args.size
    if size is None:
        raise ValueError("give --input or --size")
    spec = linalg.RandomSpec(args.seed, ensemble)
    return linalg.random_matrix(spec, size, size), str(args.seed)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_norms(args) -> list[dict]:
    a, seed = _input_or_random(args, "complex-gaussian")
    rows = []
    for p, schatten in zip(args.p, linalg.schatten_norms(a, args.p)):
        row = {"seed": seed, "p": p, "schatten": schatten}
        row["z"] = norms.z_norm(a, p) if not math.isinf(p) else ""
        if p > 2.0 and not math.isinf(p):
            row["z_tilde"], row["z_tilde_kind"] = norms.z_tilde_upper(a, p), "upper"
        elif 1.0 <= p < 2.0:
            dec = norms.z_tilde_lower(a, p)
            row["z_tilde"], row["z_tilde_kind"] = dec.objective, "lower"
        else:
            row["z_tilde"], row["z_tilde_kind"] = "", ""
        rows.append(row)
    return rows


def _cmd_fact1(args) -> list[dict]:
    rows = []
    base = linalg.RandomSpec(args.seed, args.ensemble)
    for trial in range(args.trials):
        spec = linalg.substream(base, trial)
        a = linalg.random_matrix(spec, args.size, args.size)
        for p, (z_slack, zt_slack) in zip(args.p, signs.norm_domination_slacks(a, args.p)):
            rows.append(
                {
                    "instance": trial,
                    "seed": spec.seed,
                    "p": p,
                    "size": args.size,
                    "z_slack": z_slack,
                    "z_tilde_slack": zt_slack,
                }
            )
    return rows


def _cmd_fact2(args) -> list[dict]:
    rows = []
    base = linalg.RandomSpec(args.seed)
    exhaustive = args.size * args.size <= signs.EXHAUSTIVE_BITS_CAP
    for trial in range(args.trials):
        spec = linalg.substream(base, trial)
        a = linalg.random_matrix(spec, args.size, args.size)
        for p in args.p:
            if exhaustive:
                rep = signs.rademacher_z_tilde_ratio(a, p)
            else:
                rep = signs.rademacher_z_tilde_ratio(
                    a, p, mode="monte-carlo", trials=args.mc_trials, spec=linalg.substream(spec, 1)
                )
            rows.append(
                {
                    "instance": trial,
                    "seed": spec.seed,
                    "p": p,
                    "size": args.size,
                    "mode": rep.average.mode,
                    "samples": rep.average.samples,
                    "root": rep.root,
                    "z_tilde": rep.z_tilde,
                    "ratio": rep.ratio,
                    "std_error": rep.average.std_error,
                }
            )
    return rows


def _cmd_projection(args) -> list[dict]:
    rows = []
    base = linalg.RandomSpec(args.seed)
    n = args.n
    dim = n * (1 << (n * n))
    dense_ps = [p for p in args.p if p > 2.0]
    # per trial: one lift round-trip, one dense draw whose SVD serves every p > 2
    roundtrip = 0.0
    slack_min = dict.fromkeys(dense_ps, math.inf)
    for trial in range(args.trials):
        spec = linalg.substream(base, trial)
        a = linalg.random_matrix(spec, n, n)
        lifted = projection.sign_block_lift(a)
        roundtrip = max(roundtrip, float(np.max(np.abs(projection.block_sign_average(lifted) - a))))
        if dense_ps:
            b = linalg.random_matrix(linalg.substream(spec, 1), dim, dim)
            for p, slack in zip(dense_ps, projection.row_norm_projection_slack(b, n, dense_ps)):
                slack_min[p] = min(slack_min[p], slack)
    for p in args.p:
        est = projection.estimate_projection_norm(n, p, trials=args.trials, spec=base)
        rows.append(
            {
                "seed": args.seed,
                "n": n,
                "p": p,
                "roundtrip_max_err": roundtrip,
                "min_row_norm_slack": slack_min.get(p, ""),
                "projection_norm_lb": est.lower_bound,
                "sqrt_p": math.sqrt(p),
            }
        )
    return rows


def _cmd_embedding(args) -> list[dict]:
    rows = []
    if args.input:
        with open(args.input) as fh:
            instances = [emb.instance_from_json(json.load(fh))]
        seeds = [""]
    else:
        if args.k is None or args.size is None:
            raise ValueError("give --input or both --k and --size")
        instances, seeds = [], []
        base = linalg.RandomSpec(args.seed)
        for trial in range(args.trials):
            spec = linalg.substream(base, trial)
            for p in args.p:
                ts = _unit_norm_family(spec, args.k, args.size, p)
                instances.append(emb.EmbeddingInstance(ts, p))
                seeds.append(str(spec.seed))
    for seed, inst in zip(seeds, instances):
        report = emb.tight_embedding_audit(inst)
        rows.append(
            {
                "seed": seed,
                "p": inst.p,
                "k": report.k,
                "n": report.n,
                "constant": report.constant,
                "bound": report.bound,
                "rank": report.d,
                "holds": report.holds,
                "sign_average": report.sign_average,
                "khintchine_slack": report.khintchine_slack,
            }
        )
    return rows


def _unit_norm_family(spec, k: int, n: int, p: float) -> np.ndarray:
    """k random matrices normalized so the audit preconditions hold at p."""
    rng = spec.rng()
    ts = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    for i in range(k):
        # unit Schatten-p norm; for p < 2 this also caps the operator norm at 1
        ts[i] /= linalg.schatten_norm(ts[i], p)
    return ts


def _cmd_paving_find(args) -> list[dict]:
    a, seed = _input_or_random(args, "zero-diagonal-complex-gaussian")
    spec = linalg.RandomSpec(args.seed)
    rows = []
    for p in args.p:
        result = paving.find_balanced_split(a, p, strategy=args.strategy, spec=spec)
        u, _ = paving.paving_split(a, result.sigma)
        original = result.norm
        rows.append(
            {
                "seed": seed,
                "p": p,
                "strategy": result.strategy,
                "sigma": "|".join(str(int(i) + 1) for i in result.sigma),
                "v_power": result.v_power,
                "original_norm": original,
                "paved_norm": linalg.schatten_norm(u, p),
                "guaranteed_bound": (1.0 - 2.0**-p) ** (1.0 / p) * original,
            }
        )
    return rows


def _cmd_paving_decay(args) -> list[dict]:
    a, seed = _input_or_random(args, "zero-diagonal-complex-gaussian")
    spec = linalg.RandomSpec(args.seed)
    rows = []
    for p in args.p:
        levels = paving.pave_levels(a, p, args.depth, strategy=args.strategy, spec=spec)
        for result in itertools.islice(levels, 1, None):
            cert = result.certificate
            rows.append(
                {
                    "seed": seed,
                    "p": p,
                    "depth": result.partition.depth,
                    "parts": len(result.partition.parts),
                    "paved_norm": cert.paved_norm,
                    "guaranteed_bound": cert.guaranteed_bound,
                    "original_norm": cert.original_norm,
                }
            )
    return rows


def _cmd_prop_average(args) -> list[dict]:
    a, seed = _input_or_random(args, "zero-diagonal-complex-gaussian")
    identities_ok = all(
        paving.balanced_overlap_ratios(m) == (Fraction(m, 4 * m - 2), Fraction(m, 8 * m - 4))
        for m in range(2, 13)
    )
    rows = []
    for p in args.p:
        rep = paving.balanced_subset_average(a, p)
        rows.append(
            {
                "seed": seed,
                "p": p,
                "m": rep.m,
                "subsets": rep.subsets,
                "average": rep.average,
                "lower_bound_2p": rep.lower_bound_2p,
                "lower_bound_sharp": rep.lower_bound_sharp,
                "total_ppower": rep.total_ppower,
                "identities_ok": identities_ok,
            }
        )
    return rows


_COLUMNS = {
    "norms": ["seed", "p", "schatten", "z", "z_tilde", "z_tilde_kind"],
    "fact1": ["instance", "seed", "p", "size", "z_slack", "z_tilde_slack"],
    "fact2": ["instance", "seed", "p", "size", "mode", "samples", "root", "z_tilde", "ratio", "std_error"],
    "projection": ["seed", "n", "p", "roundtrip_max_err", "min_row_norm_slack", "projection_norm_lb", "sqrt_p"],
    "embedding": ["seed", "p", "k", "n", "constant", "bound", "rank", "holds", "sign_average", "khintchine_slack"],
    "paving-find": ["seed", "p", "strategy", "sigma", "v_power", "original_norm", "paved_norm", "guaranteed_bound"],
    "paving-decay": ["seed", "p", "depth", "parts", "paved_norm", "guaranteed_bound", "original_norm"],
    "prop-average": ["seed", "p", "m", "subsets", "average", "lower_bound_2p", "lower_bound_sharp", "total_ppower", "identities_ok"],
}

_HANDLERS = {
    "norms": _cmd_norms,
    "fact1": _cmd_fact1,
    "fact2": _cmd_fact2,
    "projection": _cmd_projection,
    "embedding": _cmd_embedding,
    "paving-find": _cmd_paving_find,
    "paving-decay": _cmd_paving_decay,
    "prop-average": _cmd_prop_average,
}


def _add_common(sub, *, p_default=None):
    sub.add_argument("--p", type=float, action="append", help="exponent (repeatable)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(p_default=p_default or [4.0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schattenlab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("norms", help="all norms of one matrix")
    _add_common(sub)
    sub.add_argument("--input", default=None, help="matrix JSON file")
    sub.add_argument("--size", type=int, default=None)

    sub = subs.add_parser("fact1", help="norm-domination slack table over random matrices")
    _add_common(sub)
    sub.add_argument("--size", type=int, default=6)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--ensemble", default="complex-gaussian", choices=linalg.ENSEMBLES)

    sub = subs.add_parser("fact2", help="sign-average vs two-sided row norm ratio table")
    _add_common(sub)
    sub.add_argument("--size", type=int, default=3)
    sub.add_argument("--trials", type=int, default=10)
    sub.add_argument("--mc-trials", type=int, default=10_000, help="samples when too big for exhaustive")

    sub = subs.add_parser("projection", help="lift round-trip, row-norm slacks, projection-norm curve")
    _add_common(sub)
    sub.add_argument("--n", type=int, default=2)
    sub.add_argument("--trials", type=int, default=8)

    sub = subs.add_parser("embedding", help="rank-bound audit reports")
    _add_common(sub)
    sub.add_argument("--input", default=None, help="instance JSON file")
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--size", type=int, default=None)
    sub.add_argument("--trials", type=int, default=10)

    sub = subs.add_parser("paving-find", help="one balanced split with certificate")
    _add_common(sub)
    sub.add_argument("--input", default=None)
    sub.add_argument("--size", type=int, default=None)
    sub.add_argument("--strategy", default="exhaustive", choices=("exhaustive", "random", "greedy"))

    sub = subs.add_parser("paving-decay", help="paved norm vs depth curves")
    _add_common(sub)
    sub.add_argument("--input", default=None)
    sub.add_argument("--size", type=int, default=None)
    sub.add_argument("--depth", type=int, default=4)
    sub.add_argument("--strategy", default="exhaustive", choices=("exhaustive", "random", "greedy"))

    sub = subs.add_parser("prop-average", help="exhaustive balanced averages + exact identity check")
    _add_common(sub)
    sub.add_argument("--input", default=None)
    sub.add_argument("--size", type=int, default=None)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.p:
        args.p = args.p_default
    try:
        rows = _HANDLERS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        json.dump({"error": "precondition", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        json.dump({"error": "numerical", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    _write_rows(rows, _COLUMNS[args.command], args.out, args.format)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

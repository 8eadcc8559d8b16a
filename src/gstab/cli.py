"""
Command-line interface: reproducible experiments with JSON/CSV output.

Every run emits a manifest (command, config path, seed, git description,
output paths) alongside its results; identical inputs give byte-identical
outputs on one platform.  Each subcommand takes only the flags it reads:
--out and --format everywhere, --seed and --samples on the sampling
subcommands, --config on search.  The manifest seed is the seed the run
used: --seed, the config's seed for search, null for the exact
subcommands (hermite, tensor, basis, cube), and null for ncd unless its
block-embedding route ran (--n-max > 2 with two labels on a source with
two or more symbols on each side, reached only when the exhaustive search
at n <= 2 falls short).  The git
description is of gstab's own source checkout, whatever the working
directory (gstab-<version> when the package is not in one), and is taken
once per process.  Exit codes: 0 success, 2 usage error, 3 numeric
failure (e.g. a threshold search that did not converge).  Diagnostics go
to stderr.  These inputs are refused as usage errors, with a message
that names them: a NaN or negative --t; a NaN rho or one outside
[-1, 1]; a tolerance (--tol, --delta, a config's measure_tol) that is not
finite and > 0; a NaN or infinite --kappa; a distribution (--mu, --nu, a
config's target_mu, the rows of a --dist file) with a non-numeric,
non-finite or negative entry, the wrong number of entries, or a sum away
from 1; --samples below 1; an --n-max or --oracle-n below 1 (--oracle-n 0,
the default, runs no oracle); a search config with an unknown or a
missing field; and a partition file with a non-finite halfspace vector,
slab breakpoint or PTF polynomial constant or chaos entry.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys

from . import __version__
from .chaos import eigenregularity, poly_product, variance_bounds
from .cube import cube_influences, cube_stability, make_voting_rule
from .gauss import coupling, gaussian_rng
from .hermite import spectral_weights
from .partitions import (
    MultiPTF,
    estimate_cell_stability,
    estimate_stability,
    partition_from_json,
    random_balanced_slabs,
    sheppard_orthant,
)
from .product_space import JointDist, block_port, correlation_basis, estimate_discrete_corr
from .rounding import _onehot_expansion, ptf_from_truncation, stability_of_rounding
from .search import SearchConfig, ncd_brute_oracle, ncd_decide, optimize_stability


class NumericFailure(RuntimeError):
    """Raised when an iterative computation fails to converge."""


@functools.cache
def _git_describe() -> str:
    """The checkout this process loaded gstab from; computed once, since
    the code a process runs does not change under it."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return f"gstab-{__version__}"


def _manifest(args, outputs) -> dict:
    argv = getattr(args, "_argv", None) or [args.command]
    return {
        "command": " ".join(argv),
        "config_path": getattr(args, "config", None),
        "seed": getattr(args, "seed", None),
        "git_describe": _git_describe(),
        "outputs": outputs,
    }


def _flatten(doc, prefix=""):
    """(dotted key, leaf) rows of a JSON document; an empty list or dict
    is a leaf, written as an empty field like null."""
    rows = []
    if isinstance(doc, (dict, list, tuple)) and not doc:
        rows.append((prefix[:-1], None))
    elif isinstance(doc, dict):
        for key in sorted(doc):
            rows.extend(_flatten(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        for i, v in enumerate(doc):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], doc))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(args, result: dict) -> None:
    outputs = [args.out] if getattr(args, "out", None) else []
    doc = {"manifest": _manifest(args, outputs), "result": result}
    if getattr(args, "format", "json") == "csv":
        rows = _flatten(doc)
        text = "key,value\n" + "\n".join(f"{k},{_fmt(v)}" for k, v in rows) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, default=_fmt, allow_nan=False) + "\n"
    if outputs:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _load_partition(path: str):
    """A partition file, or the JSON output of ``gstab search``, whose
    result carries the best partition found."""
    with open(path) as fh:
        doc = json.load(fh)
    if "result" in doc:
        doc = doc["result"]["best"]
    return partition_from_json(json.dumps(doc))


def _load_dist(path: str) -> JointDist:
    with open(path) as fh:
        return JointDist.from_json(fh.read())


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_stability(args):
    f = _load_partition(args.partition)
    rho, _, _ = coupling(args.t, args.rho)
    est = estimate_stability(f, None, args.samples, args.seed, rho=rho)
    result = {
        "agreement": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
        "t": est.t if math.isfinite(est.t) else None,  # rho <= 0: no finite t
    }
    if args.cell:
        cell = estimate_cell_stability(f, args.cell, None, args.samples, args.seed, rho=rho)
        result["cell"] = args.cell
        result["cell_stability"] = cell.value
        result["cell_std_error"] = cell.std_error
    _emit(args, result)


def _cmd_borell_check(args):
    rho, _, _ = coupling(args.t, args.rho)
    if rho < 0:
        raise ValueError(f"borell-check needs rho >= 0 (Borell's inequality reverses below 0), got {rho}")
    rng = gaussian_rng(args.seed)
    half = 2.0 * sheppard_orthant(rho)
    rows = []
    violations = 0
    for trial in range(args.trials):
        f = random_balanced_slabs(rng, k=2, pieces=args.pieces)
        est = estimate_stability(f, None, args.samples, args.seed + trial + 1, rho=rho)
        gap = half - est.value
        if gap < -6 * est.std_error:
            violations += 1
        rows.append({"trial": trial, "stability": est.value, "halfspace": half, "gap": gap})
    _emit(args, {"rows": rows, "violations": violations})


def _cmd_round(args):
    f = _load_partition(args.partition)
    report = stability_of_rounding(f, args.t, tol=args.tol, samples=args.samples, seed=args.seed)
    if not report.converged:
        raise NumericFailure("threshold search did not reach the requested tolerance")
    doc = json.loads(report.to_json())
    if args.degree:
        trunc = ptf_from_truncation(f, args.degree, samples=args.samples, seed=args.seed)
        doc["disagreement"] = trunc.disagreement
        doc["collision"] = trunc.collision
        doc["tail_mass"] = trunc.tail_mass
        doc["bound"] = trunc.bound
    _emit(args, doc)


def _cmd_hermite(args):
    f = _load_partition(args.partition)
    emb = _onehot_expansion(f, args.max_degree, args.quad_order)
    weights = spectral_weights(emb, 1.0)
    _emit(
        args,
        {
            "coefficients": [
                {"index": list(S), "coeff": c.tolist()} for S, c in sorted(emb.coeffs.items())
            ],
            "by_degree": weights.by_degree.tolist(),
            "tail": weights.tail,
        },
    )


def _cmd_tensor(args):
    f = _load_partition(args.partition)
    if not isinstance(f, MultiPTF):
        raise ValueError("tensor operations need a PTF partition file")
    result = {}
    if args.op in ("eigen", "all"):
        reports = []
        for j, p in enumerate(f.polys):
            if any(q >= 2 for q in p.chaos):
                rep = eigenregularity(p)
                reports.append(
                    {"label": j + 1, "lambda_max": rep.lambda_max, "ratio": rep.ratio}
                )
        result["eigenregularity"] = reports
    if args.op in ("variance-bounds", "all") and len(f.polys) >= 2:
        p = f.polys[0].normalized()
        q = f.polys[1].normalized()
        q = q.shift(-q.mean())
        vb = variance_bounds(p, q)
        result["variance_bounds"] = {
            "upper": vb.upper,
            "lower_top": vb.lower_top,
            "lower_schedule": vb.lower_schedule,
            "product_variance": vb.product_variance,
        }
    if args.op in ("ito-product", "all") and len(f.polys) >= 2:
        prod = poly_product(f.polys[0], f.polys[1])
        result["product"] = {
            "constant": prod.constant,
            "orders": sorted(prod.chaos),
            "variance": prod.variance(),
        }
    _emit(args, result)


def _cmd_basis(args):
    P = _load_dist(args.dist)
    basis = correlation_basis(P)
    _emit(
        args,
        {
            "rho": basis.rho.tolist(),
            "maximal_correlation": basis.maximal_correlation,
            "X": basis.X.tolist(),
            "Y": basis.Y.tolist(),
        },
    )


def _cmd_simulate(args):
    P = _load_dist(args.dist)
    g = _load_partition(args.partition)
    fstrat, gstrat = block_port(P, g, g, args.ell)
    rep = estimate_discrete_corr(fstrat, gstrat, P, args.samples, args.seed)
    _emit(args, json.loads(rep.to_json()))


def _cmd_cube(args):
    f = make_voting_rule(args.rule, args.n, args.k)
    result = {
        "rule": args.rule,
        "n": args.n,
        "k": args.k,
        "stability": cube_stability(f, coupling(args.t, args.rho)[0]),
        "influences": cube_influences(f).tolist(),
    }
    _emit(args, result)


def _cmd_search(args):
    with open(args.config) as fh:
        cfg = SearchConfig.from_json(fh.read())
    args.seed = cfg.seed  # the manifest records the seed the run used
    res = optimize_stability(cfg)
    doc = json.loads(res.to_json())
    if not res.feasible:
        print("warning: measure constraint not met within budget", file=sys.stderr)
    _emit(args, doc)


def _cmd_ncd(args):
    P = _load_dist(args.dist)
    mu = json.loads(args.mu)
    nu = json.loads(args.nu)
    decision = ncd_decide(
        P, mu, nu, args.kappa, args.delta, n_max=args.n_max,
        samples=args.samples, seed=args.seed,
    )
    if not decision.sampled:
        args.seed = None  # only the block-embedding route reads the seed
    doc = json.loads(decision.to_json())
    if args.oracle_n:
        doc["oracle"] = ncd_brute_oracle(P, mu, nu, len(mu), args.oracle_n, args.delta)
    _emit(args, doc)


# --------------------------------------------------------------------------


def _add_output(p):
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _add_sampling(p, samples=100_000):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=samples)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gstab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="estimate noise stability of a partition file")
    p.add_argument("--partition", required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--cell", type=int, default=None)
    _add_sampling(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("borell-check", help="random balanced partitions vs the halfspace")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--pieces", type=int, default=4)
    _add_sampling(p)
    p.set_defaults(func=_cmd_borell_check)

    p = sub.add_parser("round", help="smooth-threshold-round pipeline report")
    p.add_argument("--partition", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--degree", type=int, default=0)
    _add_sampling(p, samples=200_000)
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("hermite", help="expansion and spectral weights of a partition")
    p.add_argument("--partition", required=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--quad-order", type=int, default=40,
                   help="tensor-rule order; read only on the quadrature route")
    p.set_defaults(func=_cmd_hermite)

    p = sub.add_parser("tensor", help="eigenregularity / products / variance bounds")
    p.add_argument("--partition", required=True)
    p.add_argument("--op", choices=["eigen", "ito-product", "variance-bounds", "all"], default="all")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("basis", help="maximal-correlation basis of a joint distribution")
    p.add_argument("--dist", required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("simulate", help="block strategies on a finite source")
    p.add_argument("--dist", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--ell", type=int, default=64)
    _add_sampling(p, samples=200_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cube", help="voting-rule stability and influences")
    p.add_argument("--rule", choices=["dictator", "majority", "plurality", "slab-embedding"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("search", help="optimize stability from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("ncd", help="correlation-distillation decider and oracle")
    p.add_argument("--dist", required=True)
    p.add_argument("--mu", required=True, help="JSON list")
    p.add_argument("--nu", required=True, help="JSON list")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--oracle-n", type=int, default=0)
    _add_sampling(p)
    p.set_defaults(func=_cmd_ncd)

    for p in sub.choices.values():
        _add_output(p)
    return ap


# the process's one dispatch parser; parse_args keeps no state in it
_parser = functools.cache(build_parser)


def cli_dispatch(argv=None) -> int:
    effective = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = _parser().parse_args(effective)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._argv = effective
    try:
        args.func(args)
    except (NumericFailure, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()

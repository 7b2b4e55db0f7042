"""Command-line interface.

Subcommands: thresholds, classify, sample, chromatic, count-colorings,
moments-exact, sscm, opt-verify, tau, laplace-check, campaign.  Graph
arguments accept the "Km" shorthand or a path to a "V E" + edge-list text
file.  JSON goes to stdout; the campaign writes CSV/JSONL files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import asymptotics, experiments, lattice_tools, stochastic_opt, thresholds
from .base_graph import read_edge_list, resolve_graph_arg
from .coloring import chromatic_number, count_proper_colorings, count_strongly_equitable
from .errors import LiftChromaError
from .lift import Lift, expand, sample_lift
from .moments_exact import expected_X_exact, expected_Y2_exact, expected_Y_exact


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _cmd_thresholds(args) -> None:
    sys.stdout.write("k,u_k,ell_k,c_k\n")
    for k in range(3, args.k_max + 1):
        sys.stdout.write(
            f"{k},{thresholds.u_threshold(k)!r},{thresholds.ell_threshold(k)!r},"
            f"{thresholds.c_q(k)!r}\n"
        )


def _cmd_classify(args) -> None:
    w = thresholds.classify(args.d)
    _emit(
        {
            "d": w.d,
            "k": w.k,
            "kind": w.kind.value,
            "bounds": list(w.bounds),
            "chromatic_values": list(w.chromatic_values),
        }
    )


def _cmd_sample(args) -> None:
    g = resolve_graph_arg(args.graph)
    lift = sample_lift(g, args.n, args.seed)
    sys.stdout.write(lift.to_json() + "\n")


def _load_lift(args) -> Lift:
    g = resolve_graph_arg(args.graph)
    if args.lift:
        with open(args.lift) as fh:
            return Lift.from_json(g, fh.read())
    if args.n is None:
        raise ValueError("need --n (to sample) or --lift FILE")
    return sample_lift(g, args.n, args.seed)


def _cmd_chromatic(args) -> None:
    lift = _load_lift(args)
    _emit({"n": lift.n, "chi": chromatic_number(expand(lift))})


def _cmd_count_colorings(args) -> None:
    lift = _load_lift(args)
    out = {"n": lift.n, "k": args.k}
    if args.equitable:
        out["count"] = count_strongly_equitable(lift, args.k)
    else:
        out["count"] = count_proper_colorings(expand(lift), args.k)
    _emit(out)


def _cmd_moments_exact(args) -> None:
    g = resolve_graph_arg(args.graph)
    which = args.which
    if which == "X":
        val = expected_X_exact(g, args.n, args.k)
    elif which == "Y":
        val = expected_Y_exact(g, args.n, args.k)
    else:
        val = expected_Y2_exact(g, args.n, args.k)
    _emit({"which": which, "n": args.n, "k": args.k, "value": f"{val.numerator}/{val.denominator}"})


def _exp_or_none(log_value: float) -> float | None:
    """exp(log_value), or None (JSON null) when it overflows a float."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return None


def _cmd_sscm(args) -> None:
    g = resolve_graph_arg(args.graph)
    k = args.k
    constants = asymptotics.sscm_constants(g, k, 10)
    check = asymptotics.sscm_identity_check(g, k)
    logs = {"C1": asymptotics.log_c1(g, k), "C2": asymptotics.log_c2(g, k), "h": asymptotics.log_h_dk(g, k)}
    _emit(
        {
            "lambda": list(constants.lam),
            "delta": list(constants.delta),
            "convergence_ratio": constants.convergence_ratio,
            "identity_gap": check.gap,
            "identity_J": check.J,
            "identity_tail_bound": check.tail_bound,
            "log_C2_over_C1sq": check.lhs,
            **{name: _exp_or_none(log) for name, log in logs.items()},
            **{f"log_{name}": log for name, log in logs.items()},
        }
    )


def _cmd_opt_verify(args) -> None:
    rng = np.random.default_rng(args.seed)
    if args.which == "an":
        q = args.q
        c = args.c if args.c is not None else 0.97 * thresholds.c_q(q)
        mats = rng.dirichlet(np.ones(q), size=(args.trials, q))
        gaps = stochastic_opt.square_gap(mats, c)
        _emit({"which": "an", "q": q, "c": c, "trials": args.trials, "worst_gap": float(gaps.min())})
        return
    if args.which == "rect":
        q, k = args.q, args.k
        c = args.c if args.c is not None else 0.99 * stochastic_opt.rect_coefficient_bound(q, k)
        mats = rng.dirichlet(np.ones(k), size=(args.trials, q))
        gaps = stochastic_opt.rect_gap(mats, c)
        _emit({"which": "rect", "q": q, "k": k, "c": c, "trials": args.trials, "worst_gap": float(gaps.min())})
        return
    g = resolve_graph_arg(args.graph)
    report = stochastic_opt.verify_max_uniform(
        args.which, g=g, k=args.k, trials=args.trials, seed=args.seed
    )
    _emit(
        {
            "which": args.which,
            "trials": report.trials,
            "best_value": report.best_value,
            "uniform_value": report.uniform_value,
            "gap_to_uniform": report.gap_to_uniform,
            "grad_norm_at_uniform": report.grad_norm_at_uniform,
        }
    )


def _cmd_tau(args) -> None:
    # tau is defined for any loopless multigraph, regular or not
    gamma = lattice_tools.ConstraintGraph(*read_edge_list(args.graph))
    _emit({"tau": lattice_tools.tau_maximal_forests(gamma)})


def _cmd_laplace_check(args) -> None:
    g = resolve_graph_arg(args.graph)
    if args.which == "EY":
        problem = lattice_tools.build_ey_problem(g, args.k)
        closed = asymptotics.ey_asym(g, args.n, args.k)
    else:
        problem = lattice_tools.build_ey2_problem(g, args.k)
        closed = asymptotics.ey2_asym(g, args.n, args.k)
    diagnostics: dict = {}
    lap = lattice_tools.laplace_estimate(problem, args.n, diagnostics)
    rel = abs(math.exp(lap.log - closed.log) - 1.0)
    _emit(
        {
            "which": args.which,
            "n": args.n,
            "k": args.k,
            "log_laplace": lap.log,
            "log_closed_form": closed.log,
            "rel_error": rel,
            **diagnostics,
        }
    )


def _cmd_campaign(args) -> None:
    if args.config:
        with open(args.config) as fh:
            config = experiments.CampaignConfig.from_json(fh.read())
    else:
        if not (args.graph and args.n and args.statistics and args.out):
            raise ValueError("campaign needs --config or --graph/--n/--statistics/--out")
        config = experiments.CampaignConfig(
            graph=args.graph,
            n_values=[int(x) for x in args.n],
            k=args.k,
            statistics=args.statistics,
            samples=args.samples,
            seed=args.seed,
            output_prefix=args.out,
        )
    records = experiments.run_campaign(config)
    _emit(
        {
            "config_sha256": config.sha256(),
            "cells": len(records),
            "csv": str(config.output_prefix) + ".csv",
            "jsonl": str(config.output_prefix) + ".jsonl",
        }
    )


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liftchroma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="CSV table of u_k, ell_k, c_k")
    p.add_argument("--k-max", type=int, default=20)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("classify", help="concentration window for degree d")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sample", help="sample a lift, print its JSON record")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("chromatic", help="exact chromatic number of a lift")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=_int_at_least(1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lift", help="JSON lift record file (instead of sampling)")
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("count-colorings", help="exact colouring counts of a lift")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=_int_at_least(1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lift")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--equitable", action="store_true")
    p.set_defaults(func=_cmd_count_colorings)

    p = sub.add_parser("moments-exact", help="exact E[X], E[Y] or E[Y^2]")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--which", choices=["X", "Y", "Y2"], required=True)
    p.set_defaults(func=_cmd_moments_exact)

    p = sub.add_parser("sscm", help="conditioning constants and variance identity")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_sscm)

    p = sub.add_parser("opt-verify", help="probe the optimization inequalities")
    p.add_argument("--which", choices=["an", "rect", "f", "F"], required=True)
    p.add_argument("--graph", default="K4")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--q", type=_int_at_least(3), default=4)
    p.add_argument("--c", type=float)
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_opt_verify)

    p = sub.add_parser("tau", help="maximal forests of a multigraph file")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("laplace-check", help="Laplace estimate vs closed form")
    p.add_argument("--which", choices=["EY", "EY2"], required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.set_defaults(func=_cmd_laplace_check)

    p = sub.add_parser("campaign", help="run a Monte Carlo campaign")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--graph")
    p.add_argument("--n", nargs="*")
    p.add_argument("--k", type=int)
    p.add_argument("--statistics", nargs="*")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_campaign)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (LiftChromaError, ValueError) as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

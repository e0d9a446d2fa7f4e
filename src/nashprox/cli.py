"""Command line front end.

Subcommands: pgr, dist-pgr, pbr (replicated solver runs), bounds (rate and
complexity calculators only), validate (every check a run makes before its
first replication, without running). Exit codes: 0 success, 2 config or
schema rejection, 3 assumption or parameter validation failure, 4 runtime
failure of an iterative procedure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (ConfigError, Divergence, InnerSolveFailure, InvalidStep,
                     NoGeometricMixing, NonConvergence, NotStronglyMonotone)
from .experiments import ExperimentSpec, prepare_experiment, run_experiment
from .serialize import load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

_RUN_SCHEMES = ("pgr", "dist-pgr", "pbr", "bounds")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, metavar="<path>",
                     help="JSON experiment configuration")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress the stdout summary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashprox",
        description="Variable sample-size solvers for stochastic Nash games")
    subs = parser.add_subparsers(dest="command", required=True)
    for scheme in _RUN_SCHEMES:
        sub = subs.add_parser(
            scheme, help=f"run the {scheme} scheme from a config document")
        _add_common(sub)
        sub.add_argument("--out", metavar="<dir>", default=None,
                         help="directory for trace.csv and report.json")
        sub.add_argument("--seed", type=int, default=None, metavar="<u64>",
                         help="override the config seed")
        sub.add_argument("--replications", type=int, default=None,
                         metavar="<n>", help="override the config replications")
    sub = subs.add_parser("validate",
                          help="validate a config document and its assumptions")
    _add_common(sub)
    return parser


def _print_run_summary(report, out_dir) -> None:
    d = report.as_dict()
    print(f"scheme {d['scheme']}: seed {d['seed']}, "
          f"{d['replications']} replication(s)")
    if d["scheme"] == "bounds":
        t = d["theory"]
        print(f"  q = {t['q']:.12g}, envelope constant = "
              f"{t['envelope_constant']:.12g}, rate = {t['envelope_rate']:.12g}")
        print(f"  K(eps) = {t['k_eps']:.12g}, M(eps) = {t['m_eps']:.12g}")
    else:
        print(f"  iterations {d['iterations']}, mean final error "
              f"{d['mean_final_error']:.6e}")
        env = d["theory"]["envelope"]
        print(f"  envelope rate {env['rate']:.6f} "
              f"({'holds' if env['ok'] else 'VIOLATED'}, max ratio "
              f"{env['max_ratio']:.3f}); fitted log-slope "
              f"{d['fit']['slope']:.6f} (r^2 {d['fit']['r_squared']:.4f})")
        c = d["counters"]
        print(f"  samples {c['total_samples']}, prox {c['prox_evals']}, "
              f"comm {c['comm_rounds']}, inner {c['inner_solves']}")
    if out_dir:
        print(f"  wrote {out_dir}/trace.csv and {out_dir}/report.json"
              if d["scheme"] != "bounds" else f"  wrote {out_dir}/report.json")


def _run(args) -> int:
    overrides = {"seed": args.seed, "replications": args.replications}
    doc = load_config(args.config)
    if isinstance(doc, dict):  # from_config rejects any other document
        doc.update((k, v) for k, v in overrides.items() if v is not None)
    spec = ExperimentSpec.from_config(doc, scheme=args.command)
    report = run_experiment(spec, out_dir=args.out)
    if not args.quiet:
        _print_run_summary(report, args.out)
    return EXIT_OK


def _validate(args) -> int:
    doc = load_config(args.config)
    fields, _ = prepare_experiment(ExperimentSpec.from_config(doc))
    lines = [f"config: valid for scheme '{doc['scheme']}'"]
    if "game_constants" in fields:
        c = fields["game_constants"]
        lines.append(
            f"game: eta = {c['eta']:.6g}, lip = {c['lip']:.6g}, "
            f"kappa = {c['kappa']:.6g}, nu = {c['nu']:.6g}"
            + (f", m_compact = {c['m_compact']:.6g}"
               if c["m_compact"] is not None else ""))
    if doc["scheme"] == "pbr":  # the setup rejects a >= 1
        lines.append(f"best response: a = {fields['theory']['a']:.6g} "
                     f"(contractive)")
    if "graph" in fields:
        g = fields["graph"]
        lines.append(f"graph: {g['nodes']} nodes, {g['edges']} edges, "
                     f"beta = {g['beta']:.6g}, theta = {g['theta']:.6g}")
    if not args.quiet:
        for line in lines:
            print(line)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _validate(args)
        return _run(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotStronglyMonotone, NoGeometricMixing, InvalidStep) as err:
        print(f"assumption violated: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as err:
        print(f"invalid parameters: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonConvergence, Divergence, InnerSolveFailure) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def main_exit() -> None:
    sys.exit(main())

"""Command-line front end.

Subcommands reproduce the headline quantitative results as deterministic
data files::

    catsim fig1                          loss-only entanglement vs m, per N
    catsim fig2                          W-cat vs GHZ-cat under depolarizing noise
    catsim fig3                          combined loss + noise closed-form surface
    catsim fig4                          large-N closed-form surface with per-m thresholds
    catsim thresholds                    competitor-cat separability verdicts
    catsim sweep --state wcat --n 6 ...  free-form parameter sweep
    catsim validate                      full invariant battery (exit 0 iff green)

Exit codes: 0 success, 1 validation failure, 2 bad arguments, 3 capacity
error (a requested dense state would exceed the qubit cap).
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import experiments
from .cats import CatStateKind
from .core import CapacityError, get_dense_cap, set_dense_cap
from .entanglement import ENGINES

_STATE_NAMES = {
    "wcat": CatStateKind.W_CAT,
    "ghzcat": CatStateKind.GHZ_CAT,
    "psi1": CatStateKind.PSI1_G_STATE,
    "psi2": CatStateKind.PSI2,
    "psi3": CatStateKind.PSI3_CONCAT,
}


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for counts that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_output(parser: argparse.ArgumentParser, default_out: str) -> None:
    parser.add_argument("--out", default=default_out, help=f"output path (default {default_out})")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catsim",
        description="Cat states under particle loss and local depolarizing noise.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-point details")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("fig1", help="entanglement after particle loss, closed form")
    p1.add_argument("--n-list", type=_positive_int, nargs="+",
                    default=list(experiments.DEFAULT_FIG1_N))
    _add_output(p1, "fig1.csv")

    p2 = sub.add_parser("fig2", help="W-cat vs GHZ-cat under local depolarizing noise")
    p2.add_argument("--n-list", type=_positive_int, nargs="+",
                    default=list(experiments.DEFAULT_FIG2_N))
    _add_grid(p2, 0.0, experiments.DEFAULT_P_MAX, experiments.DEFAULT_P_STEP)
    _add_output(p2, "fig2.csv")

    p3 = sub.add_parser("fig3", help="loss + noise surface, closed form")
    p3.add_argument("--n", type=_positive_int, default=experiments.DEFAULT_FIG3_N,
                    help="macro qubit count (default %(default)s)")
    p3.add_argument("--m-max", type=_non_negative_int, default=experiments.DEFAULT_FIG3_M_MAX)
    _add_grid(p3, 0.0, experiments.DEFAULT_P_MAX, experiments.DEFAULT_P_STEP)
    _add_output(p3, "fig3.csv")

    p4 = sub.add_parser("fig4", help="large-N closed-form surface with thresholds per m")
    p4.add_argument("--n", type=_positive_int, default=experiments.DEFAULT_FIG4_N)
    p4.add_argument("--m-max", type=_non_negative_int, default=experiments.DEFAULT_FIG4_M_MAX)
    _add_grid(p4, 0.0, experiments.FIG4_P_MAX, experiments.FIG4_P_STEP)
    _add_output(p4, "fig4.csv")

    pt = sub.add_parser("thresholds", help="competitor-cat separability under particle loss")
    _add_output(pt, "thresholds.csv")

    ps = sub.add_parser("sweep", help="free-form sweep over p for one state family")
    ps.add_argument("--state", choices=sorted(_STATE_NAMES), required=True)
    ps.add_argument("--n", type=_positive_int, required=True, help="macro (logical) qubit count N")
    ps.add_argument("--m", type=_non_negative_int, default=0, help="macro qubits lost (default 0)")
    ps.add_argument("--l", type=_positive_int, default=2, help="physical qubits per block (psi3 only)")
    ps.add_argument("--engine", choices=(*ENGINES, "both"), default="oracle")
    _add_grid(ps, 0.0, 1.0, 0.01)
    _add_output(ps, "sweep.csv")

    pv = sub.add_parser("validate", help="run every module invariant; exit 0 iff all pass")
    pv.add_argument("--fast", action="store_true", help="smaller grids (development aid)")

    for cmd in (p2, ps):  # the commands that spread dense grid points over threads
        cmd.add_argument("--threads", type=_positive_int, default=1,
                         help="parallel grid evaluation hint")
    for cmd in (p2, pt, ps, pv):  # the commands that can build a dense state
        cmd.add_argument("--dense-cap", type=_positive_int, default=None,
                         help="override the dense-engine qubit cap (default 12)")
    return parser


def _add_grid(parser: argparse.ArgumentParser, p_min: float, p_max: float, p_step: float) -> None:
    parser.add_argument("--p-min", type=float, default=p_min)
    parser.add_argument("--p-max", type=float, default=p_max)
    parser.add_argument("--p-step", type=float, default=p_step)


def _grid_from(args) -> list:
    return experiments.p_grid(args.p_min, args.p_max, args.p_step)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")  # no-op once configured
    root = logging.getLogger()
    previous_level = root.level
    root.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    previous_cap = get_dense_cap()
    if getattr(args, "dense_cap", None) is not None:  # fig1, fig3, fig4 build no dense state
        set_dense_cap(args.dense_cap)
    try:
        return _dispatch(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_dense_cap(previous_cap)  # the cap and the log level are process-wide;
        root.setLevel(previous_level)  # a run must not leak either


def _dispatch(args) -> int:
    if args.command == "validate":
        report = experiments.validate_report(full=not args.fast, progress=print)
        print(report.lines()[-1])
        return 0 if report.ok else 1

    if args.command == "fig1":
        records = experiments.fig1_records(args.n_list)
    elif args.command == "fig2":
        records = experiments.fig2_records(args.n_list, _grid_from(args), threads=args.threads)
    elif args.command == "fig3":
        records = experiments.fig3_records(N=args.n, m_max=args.m_max, grid=_grid_from(args))
    elif args.command == "fig4":
        records, thresholds = experiments.fig4_records(
            N=args.n, m_max=args.m_max, grid=_grid_from(args)
        )
        lo, hi = min(thresholds.values()), max(thresholds.values())
        print(f"thresholds for m=0..{args.m_max}: min {lo:.4f}, max {hi:.4f} "
              f"(one row per m at its bisected p*)")
    elif args.command == "thresholds":
        records = experiments.loss_threshold_records()
    else:  # sweep; argparse allows no other command
        records = experiments.sweep_records(
            _STATE_NAMES[args.state], args.n, args.m, _grid_from(args),
            engine=args.engine, l=args.l, threads=args.threads,
        )

    experiments.write_records(records, args.out, fmt=args.format)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

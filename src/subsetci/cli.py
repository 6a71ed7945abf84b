"""Command-line interface.

Subcommands: ``select`` (score candidates and pick a model), ``ci``
(intervals for one target), ``simulate`` (coverage study from a config
file), ``analyze`` (full per-coefficient report for a CSV dataset).

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import errors
from .criteria import Criterion
from .harness import (
    REPORT_FORMATS,
    dataset_report,
    emit_report,
    load_csv_dataset,
    parse_config_text,
    report_json,
    report_to_dict,
    simulate_coverage,
)
from .inference import InferenceTarget, SigmaSpec


def _add_common(p: argparse.ArgumentParser, with_sigma: bool = True):
    p.add_argument("--criterion", choices=["aic", "bic", "aicc"], default="aic")
    p.add_argument("--alpha", type=float, default=0.05)
    if with_sigma:
        p.add_argument(
            "--sigma", action="append", default=None, metavar="SPEC",
            help="noise strategy: known:<v>, mse-aic, mse-full or external:<v>; "
                 "repeatable")
    p.add_argument("--intercept", action="store_true",
                   help="prepend a forced intercept column")
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="directory for report files (default: print to stdout)")


def _parse_target(text: str) -> InferenceTarget:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind in ("coefficient", "coef"):
        name = rest.strip()
        if not name:
            raise errors.InputError("coefficient target needs a column name or index")
        if name.isdigit():
            return InferenceTarget.coefficient(int(name))
        return InferenceTarget.coefficient(name)
    if kind in ("prediction", "combo"):
        try:
            vals = [float(v) for v in rest.split(",") if v.strip()]
        except ValueError:
            raise errors.InputError(
                f"cannot parse the numbers of target {text!r}") from None
        if kind == "prediction":
            return InferenceTarget.prediction_mean(vals)
        return InferenceTarget.linear_combo(vals)
    raise errors.InputError(
        f"cannot parse target {text!r}; expected coefficient:<name>, "
        "prediction:<v1,...,vp> or combo:<c1,...>")


def _sigma_specs(args) -> List[SigmaSpec]:
    if args.command == "select":
        return []  # a selection builds no interval
    return [SigmaSpec.parse(s) for s in args.sigma or ["mse-full"]]


def _print(text: str) -> None:
    """Print to stdout; a stdout that cannot be written is an I/O error."""
    try:
        print(text, flush=True)
    except OSError as exc:
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout again at exit: send what is
            # left to the null device so that flush cannot fail too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise errors.IoError(f"cannot write to standard output: {exc}") from None


def _deliver(report, args):
    if args.out is not None:
        for p in emit_report(report, format=args.format, out_dir=args.out):
            _print(p)
    else:
        _print(report_json(report_to_dict(report)))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subsetci",
        description="Confidence intervals after best-subset selection, "
                    "classical and selection-corrected.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_sel = sub.add_parser("select", help="score all candidate models")
    p_sel.add_argument("csv")
    p_sel.add_argument("--response", required=True)
    _add_common(p_sel, with_sigma=False)

    p_ci = sub.add_parser("ci", help="intervals for one target")
    p_ci.add_argument("csv")
    p_ci.add_argument("--response", required=True)
    p_ci.add_argument("--target", required=True,
                      help="coefficient:<name|index>, prediction:<x1,..,xp> "
                           "or combo:<c1,..>")
    _add_common(p_ci)

    p_sim = sub.add_parser("simulate", help="coverage study from a config file")
    p_sim.add_argument("config", help="flat key=value config file")
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--format", choices=REPORT_FORMATS, default="json")
    p_sim.add_argument("--out", default=None)

    p_an = sub.add_parser("analyze", help="per-coefficient report for a CSV")
    p_an.add_argument("csv")
    p_an.add_argument("--response", required=True)
    _add_common(p_an)

    return ap


def run(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is None and args.format != "json":
        raise errors.InputError(
            f"--format {args.format} writes files; give --out DIR")

    if args.command == "simulate":
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                config = parse_config_text(fh.read())
        except OSError as exc:
            raise errors.IoError(f"cannot read config: {exc}") from None
        import dataclasses

        if args.reps is not None:
            config = dataclasses.replace(config, reps=args.reps)
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        report = simulate_coverage(config, workers=args.workers)
    else:
        # select, ci and analyze: the arguments are parsed before the CSV is read
        strategies = _sigma_specs(args)
        targets = [_parse_target(args.target)] if args.command == "ci" else None
        data = load_csv_dataset(args.csv, args.response, intercept=args.intercept)
        report = dataset_report(
            data, Criterion.parse(args.criterion), args.alpha,
            sigma_strategies=strategies, targets=targets,
            source=args.csv, response=args.response)
    _deliver(report, args)
    if args.command == "select":
        names = ", ".join(report.selected_names)
        print(f"# selected model: {report.selected} ({names})", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return run(argv)
    except errors.InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except errors.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except errors.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.SubsetCIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

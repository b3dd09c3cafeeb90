"""Command-line interface: distributions, figure tables, pulse planning,
verification.

Numeric output is serialized with the shortest decimal that round-trips
the underlying double, rows are emitted in a fixed order with LF line
endings, and identical arguments always reproduce identical bytes.

Each subcommand imports only the layers it uses, so that a launch pays
for its own command alone (``--version`` loads no numpy), and row tables
are written as a stream of _ROW_BLOCK-entry chunks, never as one text.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple

from . import __version__

__all__ = ["PlanReport", "main"]

_ROW_BLOCK = 1 << 12


class PlanReport(NamedTuple):
    """Planner output: pulse duration, reached p, and predicted counts."""

    tau: float
    achieved_p: float
    w: float
    n: int
    m: int
    headline: float
    predicted: dict[int, float]
    meta: dict

    def to_json(self) -> str:
        import json

        payload = {
            "tau": self.tau,
            "achieved_p": self.achieved_p,
            "w": self.w,
            "n": self.n,
            "m": self.m,
            "headline": self.headline,
            "predicted": {str(k): v for k, v in sorted(self.predicted.items())},
            "meta": self.meta,
        }
        return json.dumps(payload, indent=2) + "\n"


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _write(chunks, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)


def _row_chunks(start: int, probs, entry: str, sep: str):
    """The row's entries ``entry % (m_prime, value)`` joined by sep, as one
    text chunk per _ROW_BLOCK entries, so that a 4e6-row table is never
    held as text at once.  A block of +0.0 only (bitwise zero, so that -0.0
    keeps repr) fills one repeated zero entry with its counts."""
    zero_entry = entry.replace("%r", repr(0.0))
    for lo in range(0, probs.size, _ROW_BLOCK):
        block = probs[lo: lo + _ROW_BLOCK]
        counts = range(start + lo, start + lo + block.size)
        if block.view("u8").any():
            text = sep.join([entry % pair for pair in zip(counts, block.tolist())])
        else:
            text = sep.join([zero_entry] * block.size) % tuple(counts)
        yield sep + text if lo else text


def _rows_csv(start: int, probs):
    yield "m_prime,probability\n"
    yield from _row_chunks(start, probs, "%d,%r\n", "")


def _rows_json(start: int, probs, meta: dict):
    """The bytes of json.dumps({"meta": meta, "rows": rows}, indent=2) for
    nonempty probs, with the rows formatted directly: the encoder costs
    seven times as much on a 1e5-row table.  Floats use repr in both."""
    import json

    head = json.dumps({"meta": meta, "rows": []}, indent=2)
    yield head[: -len("[]\n}")] + "["
    yield from _row_chunks(start, probs, "\n    [\n      %d,\n      %r\n    ]", ",")
    yield "\n  ]\n}\n"


def _cmd_dist(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .distributions import (RareEventSpec, TransferSpec, bose_exact,
                                bose_rare_limit, classical_exact, classical_rare_limit)

    if args.limit:
        if args.w is None:
            parser.error("--limit requires --w")
        spec = RareEventSpec(w=args.w, m=args.m)
        if args.model == "classical":
            if args.mmax is not None:
                parser.error("--mmax applies to the bose limit only")
            dist = classical_rare_limit(spec)
        else:
            dist = bose_rare_limit(spec, args.mmax)
        meta = {"model": dist.model, "w": args.w, "m": args.m,
                "tail_bound": dist.meta["tail_bound"]}
    else:
        if args.n is None:
            parser.error("exact mode requires --N")
        if args.mmax is not None:
            parser.error("--mmax applies to the bose limit only")
        p = args.p if args.p is not None else args.w / args.n
        if not 0.0 <= p <= 1.0:
            parser.error(f"derived p={p!r} lies outside [0, 1]")
        spec = TransferSpec(args.n, args.m, p)
        dist = classical_exact(spec) if args.model == "classical" else bose_exact(spec)
        meta = {"model": dist.model, "n": args.n, "m": args.m, "p": p}
    if args.format == "csv":
        _write(_rows_csv(dist.start, dist.probs), args.out)
    else:
        _write(_rows_json(dist.start, dist.probs, meta), args.out)
    return 0


def _cmd_figure(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .distributions import figure_min_n, figure_table

    if args.id != 5 and not (math.isfinite(args.w) and args.w >= 0.0):
        parser.error(f"--w must be finite and nonnegative, got {args.w!r}")
    min_n = figure_min_n(args.id, args.w)
    if args.n < min_n:
        parser.error(f"figure {args.id} needs --N >= {min_n}, got {args.n}")
    header, rows = figure_table(args.id, args.n, args.w)
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    _write(["\n".join(lines) + "\n"], args.out)
    return 0


def build_plan(epsilon: float, xi: float, eta: float, n: int, m: int,
               w: float) -> PlanReport:
    """Plan the pulse: duration reaching p = w/n, plus the predicted
    bosonic final-count distribution and the empty-mode headline."""
    import numpy as np

    from .distributions import TransferSpec, bose_exact
    from .dynamics import TwoLevelParams, evolve, solve_pulse_duration

    params = TwoLevelParams(epsilon=epsilon, xi=xi, eta=eta)
    target_p = w / n
    tau = solve_pulse_duration(params, target_p)
    achieved_p = evolve(params, tau).p
    dist = bose_exact(TransferSpec(n, m, achieved_p))
    cumulative = np.cumsum(dist.probs)
    cutoff = int(np.searchsorted(cumulative, 1.0 - 1e-12)) + 1
    cutoff = max(cutoff, m + 1)
    predicted = {mp: float(dist.probs[mp]) for mp in range(min(cutoff, n + 1))}
    tail = max(0.0, 1.0 - float(cumulative[min(cutoff, n + 1) - 1]))
    meta = {"epsilon": epsilon, "xi": xi, "eta": eta,
            "predicted_tail_bound": tail}
    return PlanReport(tau=tau, achieved_p=achieved_p, w=n * achieved_p,
                      n=n, m=m, headline=float(dist.probs[0]),
                      predicted=predicted, meta=meta)


def _cmd_plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    report = build_plan(args.epsilon, args.xi, args.eta, args.n, args.m, args.w)
    _write([report.to_json()], args.out)
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .verification import run_verification

    results = run_verification(args.max_n)
    if not results:
        sys.stdout.write(f"0 checks run (max-N={args.max_n})\n")
        return 0
    failed = False
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        line = (f"{status} {check.name}: max deviation {check.max_deviation:.3e} "
                f"(tolerance {check.tolerance:.1e}, {check.cases} cases)")
        if not check.passed:
            line += f" worst at {check.worst_case}"
            failed = True
        sys.stdout.write(line + "\n")
    return 1 if failed else 0


def _particle_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosecount",
        description="Occupation-transfer statistics for two-level particles: "
                    "Poissonian versus bosonic counting.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="compute a transfer distribution")
    dist.add_argument("--model", choices=("classical", "bose"), required=True)
    dist.add_argument("--N", dest="n", type=_particle_count, help="total particle count")
    dist.add_argument("--m", type=int, default=0,
                      help="initial marked-mode count (default 0)")
    group = dist.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float, help="one-particle switch probability")
    group.add_argument("--w", type=float, help="mean event number (p = w/N)")
    dist.add_argument("--limit", action="store_true",
                      help="rare-event limit instead of the exact finite-N law")
    dist.add_argument("--mmax", type=int,
                      help="explicit support cap for the bose limit")
    dist.add_argument("--format", choices=("csv", "json"), default="csv")
    dist.add_argument("--out", help="output path (default stdout)")
    dist.set_defaults(func=_cmd_dist)

    figure = sub.add_parser("figure", help="emit a figure-reproduction table")
    figure.add_argument("--id", type=int, choices=(3, 4, 5, 6), required=True)
    figure.add_argument("--N", dest="n", type=int, default=100000)
    figure.add_argument("--w", type=float, default=3.0)
    figure.add_argument("--out", help="output path (default stdout)")
    figure.set_defaults(func=_cmd_figure)

    plan = sub.add_parser("plan", help="plan the double-well transfer pulse")
    plan.add_argument("--epsilon", type=float, default=0.0)
    plan.add_argument("--xi", type=float, default=1.0)
    plan.add_argument("--eta", type=float, default=0.0)
    plan.add_argument("--N", dest="n", type=_particle_count, required=True)
    plan.add_argument("--m", type=int, default=0)
    plan.add_argument("--w", type=float, default=3.0)
    plan.add_argument("--out", help="output path (default stdout)")
    plan.set_defaults(func=_cmd_plan)

    verify = sub.add_parser("verify", help="run the oracle cross-check suite")
    verify.add_argument("--max-N", dest="max_n", type=int, default=8)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ValueError as exc:  # TargetUnreachable and NoCoupling included
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""bosecount benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 benchmarks/run.py --workload {rows,cli,verify} --seed N --seconds S --trace {0,1}

A run first times a few fresh ``import bosecount.cli`` launches
(``setup_s``), then runs whole rounds of the workload's operations one at
a time, in a seeded order, until the operations have taken ``--seconds``.
Each operation's output is checked against references computed apart
from the package (see checks.py) the first time it runs, and must repeat
byte for byte in later rounds.  With ``--trace 1`` the same untraced
rounds run, then one traced round whose per-layer totals are reported;
spans go to benchmarks/out/.  The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# One BLAS thread: all load comes from a single process on a 2-core machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 120

# The one operation that fails on every run: its row sums to 1 - 1.14e-10,
# outside the 1e-10 normalization floor.
KNOWN_FAULT = ("classical_exact(n=100000, m=3, p=0.3)", "normalization")

# name -> stats reported from the traced round; see README.md for the
# end-to-end metric each should move.
PER_LAYER = {
    "numerics.log_factorial_array": ("calls", "busy_s", "table_bytes"),
    "numerics.signed_log_sum": ("calls", "busy_s"),
    "numerics.log_binomial": ("calls",),
    "distributions.transfer_probabilities": ("calls", "self_s", "entries"),
    "distributions.bose_exact": ("busy_s", "ns_per_entry"),
    "distributions.classical_exact": ("busy_s", "ns_per_entry"),
    "distributions.bose_rare_limit": ("busy_s", "entries"),
    "distributions.classical_rare_limit": ("busy_s", "entries"),
    "distributions.bose_jacobi_probability": ("calls", "busy_s"),
    "distributions.bose_amplitude_probability": ("calls", "busy_s"),
    "distributions.recapture_probability": ("calls",),
    "dynamics.solve_pulse_duration": ("calls", "busy_s"),
    "dynamics.evolve": ("calls", "busy_s"),
    "oracles.enumerate_distinguishable": ("calls", "busy_s"),
    "oracles.enumerate_bose_first_quantized": ("calls", "busy_s"),
    "oracles.fock_evolve": ("calls", "busy_s"),
    "verification.run_verification": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "entries": "count", "busy_s": "s", "self_s": "s",
         "ns_per_entry": "ns", "table_bytes": "B"}


class Op(NamedTuple):
    """One workload operation: ``call()`` is timed; ``check(output, rng)``
    runs untimed on its first output and returns the entries delivered;
    ``digest(output)`` must repeat in every later round."""

    label: str
    call: Callable
    check: Callable
    digest: Callable


# ---- workloads ----------------------------------------------------------

def rows_ops() -> list[Op]:
    """Whole rows from the exact and limit kernels, in one process.

    N = 1e5 stops at m = sqrt(N): its N/10 and N/2 rows take 10-130 s each.
    """
    from bosecount import distributions as dist
    import checks

    def row_digest(d):
        return hashlib.sha1(d.probs.tobytes() + str(d.start).encode()).hexdigest()

    def exact_check(d, rng, n, m, p, bose):
        checks.check_exact_row(d.probs, n, m, p, bose, rng)
        return len(d.probs)

    def limit_check(d, rng, m, bose):
        checks.check_limit_row(d.start, d.probs, 3.0, m, bose, rng)
        return len(d.probs)

    ops = []
    for n in (1000, 10000, 100000):
        ms = (3, int(n ** 0.5)) if n == 100000 else (3, int(n ** 0.5), n // 10, n // 2)
        for m in ms:
            for p in (3 / n, 0.3):
                for bose in (True, False):
                    kernel = dist.bose_exact if bose else dist.classical_exact
                    ops.append(Op(
                        f"{kernel.__name__}(n={n}, m={m}, p={p})",
                        lambda kernel=kernel, n=n, m=m, p=p: kernel(dist.TransferSpec(n, m, p)),
                        lambda d, rng, n=n, m=m, p=p, bose=bose: exact_check(d, rng, n, m, p, bose),
                        row_digest))
    for m in (3, 30, 300, 1000):
        for bose in (True, False):
            kernel = dist.bose_rare_limit if bose else dist.classical_rare_limit
            ops.append(Op(
                f"{kernel.__name__}(w=3.0, m={m})",
                lambda kernel=kernel, m=m: kernel(dist.RareEventSpec(3.0, m)),
                lambda d, rng, m=m, bose=bose: limit_check(d, rng, m, bose),
                row_digest))
    return ops


def verify_ops() -> list[Op]:
    """run_verification at every max_n in {6, 7, 8, 9}, once per round."""
    from bosecount.verification import run_verification
    import checks

    def check(results, rng, max_n):
        if not all(r.passed for r in results):
            raise checks.CheckFailed("verify", "a check did not pass")
        grid = checks.verify_grid_points(max_n)
        checks.check_verify_coverage([r.tolerance for r in results],
                                     [r.cases for r in results], grid)
        return grid

    return [Op(f"run_verification({n})", lambda n=n: run_verification(n),
               lambda res, rng, n=n: check(res, rng, n), repr)
            for n in (6, 7, 8, 9)]


CLI_N, CLI_M, CLI_W = 100000, 3, 3.0
CLI_MIX = [
    ("dist bose csv", ["dist", "--model", "bose", "--N", "100000", "--m", "3", "--w", "3"]),
    ("dist classical csv", ["dist", "--model", "classical", "--N", "100000", "--m", "3", "--w", "3"]),
    ("dist bose json", ["dist", "--model", "bose", "--N", "100000", "--m", "3", "--w", "3",
                        "--format", "json"]),
    ("dist classical json", ["dist", "--model", "classical", "--N", "100000", "--m", "3",
                             "--w", "3", "--format", "json"]),
    ("dist bose limit", ["dist", "--model", "bose", "--limit", "--m", "3", "--w", "3"]),
    ("dist classical limit", ["dist", "--model", "classical", "--limit", "--m", "3", "--w", "3"]),
    ("figure 3", ["figure", "--id", "3"]),
    ("figure 4", ["figure", "--id", "4"]),
    ("figure 5", ["figure", "--id", "5"]),
    ("figure 6", ["figure", "--id", "6"]),
    ("plan", ["plan", "--xi", "1", "--N", "100000", "--m", "3", "--w", "3"]),
    ("verify", ["verify", "--max-N", "6"]),
    ("version", ["--version"]),
]


def _check_cli(label: str, text: str, code: int, rng) -> int:
    import checks

    n, m, w, p = CLI_N, CLI_M, CLI_W, CLI_W / CLI_N
    if label == "verify":
        return checks.check_verify_output(code, text, checks.verify_grid_points(6))
    if code != 0:
        raise checks.CheckFailed("exit", f"exit code {code}")
    bose = "bose" in label
    if label.startswith("dist") and label.endswith("limit"):
        start, probs = checks.parse_rows_csv(text)
        checks.check_limit_row(start, probs, w, m, bose, rng)
        return len(probs)
    if label.startswith("dist"):
        if label.endswith("json"):
            meta, start, probs = checks.parse_rows_json(text)
            if (meta["n"], meta["m"], meta["p"]) != (n, m, p) or start != 0:
                raise checks.CheckFailed("format", f"JSON meta {meta}")
        else:
            start, probs = checks.parse_rows_csv(text)
        checks.check_exact_row(probs, n, m, p, bose, rng)
        return len(probs)
    if label in ("figure 3", "figure 4"):
        rows = checks.parse_table(text, ["m", "m_prime", "probability"])
        checks.check_surface(rows, n, p, label == "figure 4")
        return len(rows)
    if label == "figure 5":
        header = ["m"] + [f"p0m_{kind}_w{c}" for c in (1, 3, 5) for kind in ("exact", "poisson")]
        rows = checks.parse_table(text, header)
        checks.check_figure5(rows, n)
        return len(rows)
    if label == "figure 6":
        rows = checks.parse_table(text, ["m", "p_1_from_m", "p_m_from_m"])
        checks.check_sections(rows, n, p)
        return len(rows)
    if label == "plan":
        doc = json.loads(text)
        checks.check_plan(doc, n, m, w, 1.0, rng)
        return len(doc["predicted"])
    if text != _project_version() + "\n":
        raise checks.CheckFailed("version", f"printed {text!r}")
    return 0


def _project_version() -> str:
    import tomllib
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]["version"]


def cli_ops(trace_dir: Path | None = None, child_stats=None) -> list[Op]:
    """Each command of the mix in a fresh interpreter, one after another.

    Given ``trace_dir``, the command runs through cli_shim.py, which wraps
    every layer inside the child and leaves its totals in a file there
    for ``child_stats(op_id, path, stdout_bytes)`` to merge.
    """
    env = _child_env()
    ops = []
    for op_id, (label, args) in enumerate(CLI_MIX):
        if trace_dir is not None:
            stats = trace_dir / f"child-{op_id}.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(stats), str(op_id)] + args
        else:
            stats = None
            cmd = [sys.executable, "-m", "bosecount.cli"] + args

        def call(cmd=cmd, stats=stats, op_id=op_id):
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
            if stats is not None:
                child_stats(op_id, stats, len(done.stdout))
            return done

        ops.append(Op(label, call,
                      lambda done, rng, label=label: _check_cli(
                          label, done.stdout.decode("utf-8"), done.returncode, rng),
                      lambda done: (done.returncode, hashlib.sha1(done.stdout).hexdigest())))
    return ops


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


# ---- measurement -------------------------------------------------------

class Run:
    """Rounds of one workload; remembers each operation's first verdict."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.order_rng = random.Random(seed)
        self.seed = seed
        self.first: dict[str, tuple] = {}
        self.records: list[dict] = []
        self.correct = True
        self.problems: list[str] = []

    def round(self, ops: list[Op], index: int, tracer=None) -> float:
        total = 0.0
        for op_id, op in self.order_rng.sample(list(enumerate(ops)), len(ops)):
            if tracer is not None:
                tracer.op_id = op_id
            total += self._one(op, index)
        return total

    def _one(self, op: Op, index: int) -> float:
        import checks

        status, entries = "ok", 0
        gc.collect()  # every operation starts from the same collector state
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation counts as failed
            elapsed = time.perf_counter() - start
            self._problem(f"{op.label} raised {exc!r}", correct=True)
            self.records.append(dict(round=index, op=op.label, seconds=elapsed,
                                     entries=0, status="error"))
            return elapsed
        elapsed = time.perf_counter() - start
        digest = op.digest(out)
        if op.label not in self.first:
            fault = None
            try:
                entries = op.check(out, random.Random(f"{self.seed}/{op.label}"))
            except checks.CheckFailed as exc:
                fault = exc
            self.first[op.label] = (digest, entries, fault)
        first_digest, entries, fault = self.first[op.label]
        if digest != first_digest:
            self._problem(f"{op.label}: output differs from its first round", correct=False)
        if fault is not None:
            status, entries = "failed", 0
            known = (op.label, fault.check) == KNOWN_FAULT
            self._problem(f"{op.label}: {fault}", correct=known)
        self.records.append(dict(round=index, op=op.label, seconds=elapsed,
                                 entries=entries, status=status))
        return elapsed

    def _problem(self, text: str, correct: bool) -> None:
        if text not in self.problems:
            self.problems.append(text)
            print(("known fault: " if correct else "CHECK FAILED: ") + text, file=sys.stderr)
        self.correct = self.correct and correct

    def measure(self, ops: list[Op], seconds: float) -> list[float]:
        """Whole rounds until the operations have run for ``seconds``."""
        round_times = []
        while not round_times or sum(round_times) < seconds:
            round_times.append(self.round(ops, len(round_times)))
        return round_times

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(r["status"] != "ok" for r in self.records)


def setup_seconds() -> float:
    """Median wall time of fresh interpreters importing bosecount.cli."""
    cmd = [sys.executable, "-c", "import bosecount.cli"]
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        if launch:  # the first launch may compile bytecode
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: float) -> dict:
    """``op_gmean_ms`` is the geometric mean over the workload's operations
    of each one's median time across the run's rounds.  A median over
    operations would sit, on ``rows``, on the four N = 1e5, m = 3 rows,
    whose times swing 12-34 ms with the operation run before them."""
    times = [r["seconds"] for r in run.records]
    per_op: dict[str, list[float]] = {}
    for r in run.records:
        per_op.setdefault(r["op"], []).append(r["seconds"])
    log_mean = statistics.fmean(math.log(statistics.median(v)) for v in per_op.values())
    return {
        "setup_s": (setup_s, "s"),
        "op_gmean_ms": (math.exp(log_mean) * 1e3, "ms"),
        "entries_per_s": (sum(r["entries"] for r in run.records) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb(run.workload), "MiB"),
    }


def per_layer(dumped: dict, import_s: float, stdout_bytes: int, overhead_s: float) -> dict:
    metrics = {}
    for name, stats in PER_LAYER.items():
        row = dumped["totals"].get(name, {})
        busy = row.get("busy_s", 0.0)
        entries = row.get("entries", 0)
        values = {"calls": row.get("calls", 0), "busy_s": busy, "entries": entries,
                  "self_s": busy - row.get("nested_s", 0.0),
                  "ns_per_entry": busy / entries * 1e9 if entries else 0.0,
                  "table_bytes": row.get("table_bytes", 0)}
        for stat in stats:
            metrics[f"{name}.{stat}"] = (values[stat], UNITS[stat])
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "B")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def traced_round(run: Run, make_ops, workload: str, untraced_s: float, import_s: float):
    """One traced round after the untraced ones; returns per-layer metrics
    and the trace dump."""
    from tracing import Tracer, merge

    if workload == "cli":
        dumped = {"totals": {}, "spans": [], "spans_dropped": 0}
        imports, out_bytes, next_id = [], [0], [0]
        trace_dir = OUT / f"children-{os.getpid()}"
        trace_dir.mkdir(parents=True, exist_ok=True)

        def child_stats(op_id, path, nbytes):
            with open(path, encoding="utf-8") as handle:
                child = json.load(handle)
            path.unlink()
            imports.append(child["import_s"])
            out_bytes[0] += nbytes
            next_id[0] = merge(dumped, child, op_id, next_id[0])

        ops = make_ops(trace_dir, child_stats)
        traced_s = run.round(ops, -1)
        trace_dir.rmdir()
        import_s, stdout_bytes = statistics.median(imports), out_bytes[0]
    else:
        tracer = Tracer()
        tracer.install()
        traced_s = run.round(make_ops(), -1, tracer)
        dumped, stdout_bytes = tracer.dump(), 0
    metrics = per_layer(dumped, import_s, stdout_bytes, traced_s - untraced_s)
    return metrics, dumped


WORKLOADS = {"rows": rows_ops, "cli": cli_ops, "verify": verify_ops}


def environment() -> dict:
    import numpy
    import scipy
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **THREAD_ENV}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bosecount" / "__init__.py").is_file():
        print(f"error: no bosecount sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import_s = 0.0
    if args.workload != "cli":
        start = time.perf_counter()
        import bosecount.cli  # noqa: F401  (timed: the layer metric cli.import_s)
        import_s = time.perf_counter() - start
    import checks

    checks.self_test()
    setup_s = setup_seconds() if args.trace == 0 else 0.0
    make_ops = WORKLOADS[args.workload]
    run = Run(args.workload, args.seed)
    round_times = run.measure(make_ops(), args.seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # the first round also ran the checks between operations
        warm = round_times[1:] or round_times
        metrics, dumped = traced_round(run, make_ops, args.workload,
                                       statistics.median(warm), import_s)
        with open(OUT / f"{name}.spans.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"],
                                     "spans_dropped": dumped["spans_dropped"],
                                     "totals": dumped["totals"]}) + "\n")
            for span in dumped["spans"]:
                handle.write(json.dumps(span) + "\n")
    else:
        metrics = end_to_end(run, setup_s)
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump({"result": result, "environment": environment(),
                   "round_seconds": round_times, "problems": run.problems,
                   "operations": run.records}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

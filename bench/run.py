"""Benchmark for centerlab.

    python3 bench/run.py --workload center-lp --seed 1 --seconds 40 --trace 0

One caller in a closed loop calls centerlab's public entry points, one call
at a time, and times every call.  A run makes whole rounds of the workload's
fixed, seeded operation list, as many as fit --seconds on the reference host
(at least one), then checks every distinct output against computations made
apart from the program.  Neither the checks nor the input generation are
timed.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of one
round (whatever --seconds), run untraced and then traced, whose spans are
written to .bench_out/.
See bench/README.md.
"""

from __future__ import annotations

import os

# one caller, one thread: keep numpy's BLAS from spinning up worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 7  # set-ups per run; setup_s is their median

# polyhedral() warns when it adds the negations an input leaves out
warnings.filterwarnings("ignore", message="generator set was not symmetric")

END_TO_END = {"setup_s": "s", "throughput_ops_s": "1/s",
              "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "peak_rss_mib": "MiB"}


def fresh_import():
    """Import centerlab from this checkout's src/, dropping any copy already
    imported, so that every set-up pays for the import."""
    for name in [n for n in sys.modules
                 if n == "centerlab" or n.startswith("centerlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"centerlab.{name}")
            for name in ("errors", "norms", "optim", "centers", "geometry",
                         "sequences", "cli")}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"centerlab imported from {origin}, not {SRC}")
    return types.SimpleNamespace(**mods)


def generate(name: str, seed: int, small: bool) -> list:
    """The run's inputs, drawn once and untimed.  The LP-encodable center
    questions drawn again (see workloads.lp_center_instances) are reported
    on stderr."""
    inputs, redrawn = wl.generate(name, fresh_import(), seed, small,
                                  OUT / "screen")
    for reason, inst in redrawn:
        print(f"# redrawn, {reason}: {json.dumps(inst)}", file=sys.stderr)
    return inputs


def setup(name: str, inputs: list):
    """Import, build the inputs and warm up; returns (seconds, cl, work)."""
    started = time.perf_counter()
    cl = fresh_import()
    work = wl.build(name, cl, inputs, OUT)
    work.warmup()
    return time.perf_counter() - started, cl, work


class Record:
    """Timings, outputs and failures of the operations run so far."""

    def __init__(self):
        self.times: list[float] = []
        self.results: list[tuple] = []  # (position in the round, op, output)
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, ops, positions, tracer: Tracer | None = None,
            per_op=None) -> None:
        """Run ops[p % len(ops)] for each p in positions: ops is one round."""
        for position in positions:
            position %= len(ops)
            op = ops[position]
            if op.before is not None:
                op.before()
            before = tracer.snapshot() if tracer else None
            self.attempted += 1
            try:
                started = time.perf_counter()
                raw = op.call()
                elapsed = time.perf_counter() - started
                output = op.after(raw)
            except Exception as exc:  # one failed operation, not a failed run
                self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            self.times.append(elapsed)
            self.results.append((position, op, output))
            if tracer:
                after = tracer.snapshot()
                per_op.append({"op": op.label, "ms": elapsed * 1e3,
                               **{k: after[k] - before[k] for k in after}})

    def check(self) -> None:
        """Check every output; an output that repeats one already checked
        at the same position of the round (same digest) shares its verdict."""
        verdicts: dict = {}
        for position, op, output in self.results:
            key = None if op.digest is None else (position, op.digest(output))
            if key is None or key not in verdicts:
                try:
                    problems = op.check(output)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if key is not None:
                    verdicts[key] = problems
            else:
                problems = verdicts[key]
            if problems:
                self.failures.append(f"{op.label}: {'; '.join(problems)}")

    def throughput(self) -> float:
        if not self.times:
            raise RuntimeError(f"no operation completed: {self.failures[:1]}")
        return len(self.times) / sum(self.times)


def run_rounds(name: str, seed: int, seconds: float, small: bool):
    """round(seconds / ROUND_SECONDS) whole rounds, at least one: the work
    is fixed by the arguments, not by the speed of the host.  The run is cut
    into SETUPS slices, each run on a fresh set-up, so that the set-ups are
    spread over the run like the operations.  Returns the record, the set-up
    times and the modules of the last set-up."""
    inputs = generate(name, seed, small)
    record = Record()
    setup_times = []
    rounds = max(1, round(seconds / wl.ROUND_SECONDS[name]))
    for part in range(SETUPS):
        took, cl, work = setup(name, inputs)
        setup_times.append(took)
        total = rounds * len(work.ops)
        record.run(work.ops, range(part * total // SETUPS,
                                   (part + 1) * total // SETUPS))
    return record, setup_times, cl


def measure(name: str, seed: int, seconds: float, small: bool = False) -> dict:
    record, setup_times, _ = run_rounds(name, seed, seconds, small)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.check()
    ms = [t * 1e3 for t in record.times]
    values = {"setup_s": statistics.median(setup_times),
              "throughput_ops_s": record.throughput(),
              "latency_p50_ms": statistics.median(ms),
              "latency_p90_ms": statistics.quantiles(ms, n=10,
                                                     method="inclusive")[8],
              "peak_rss_mib": peak_rss_mib}
    return result(record, {k: {"value": values[k], "unit": u}
                           for k, u in END_TO_END.items()})


def measure_traced(name: str, seed: int, small: bool = False
                   ) -> tuple[dict, Tracer, list]:
    """One round untraced, then the same round traced; the two throughputs
    give trace.overhead_ratio."""
    inputs = generate(name, seed, small)
    _, cl, work = setup(name, inputs)
    whole = range(len(work.ops))
    untraced = Record()
    untraced.run(work.ops, whole)
    tracer = Tracer()
    tracer.install(cl)
    per_op: list = []
    traced = Record()
    try:
        # built again under the tracer, so the constructors are counted
        traced.run(wl.build(name, cl, inputs, OUT).ops, whole, tracer, per_op)
    finally:
        tracer.uninstall()
    overhead_ratio = untraced.throughput() / traced.throughput()
    traced.results += untraced.results
    traced.attempted += untraced.attempted
    traced.failures += untraced.failures
    traced.check()
    return result(traced, tracer.metrics(overhead_ratio)), tracer, per_op


def result(record: Record, metrics: dict) -> dict:
    return {"correct": not record.failures, "attempted": record.attempted,
            "failed": len(record.failures), "metrics": metrics,
            "failures": record.failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "centerlab" / "__init__.py").is_file():
        print(f"bench: no centerlab source at {SRC / 'centerlab'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        res, tracer, per_op = measure_traced(args.workload, args.seed)
        tracer.save(OUT / f"trace-{args.workload}", per_op)
        for row in per_op:
            if row["op"].startswith("repro"):
                print(f"# {row['op']}: {row['lp_solves']} LP solves, "
                      f"{row['pivots']} pivots, {row['oracle_calls']} oracle "
                      f"calls", file=sys.stderr)
    else:
        res = measure(args.workload, args.seed, args.seconds)
    for failure in res.pop("failures"):
        print(f"# FAILED {failure}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {res['attempted']}, failed = {res['failed']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

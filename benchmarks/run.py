#!/usr/bin/env python3
"""Run one mindpd benchmark workload in this process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``. Set-up (importing mindpd, writing the inputs, a short warm-up) is
timed from the start of this script. The timed phase repeats whole rounds
of the workload's operations until ``--seconds`` have passed. Every output
of the first round is checked against computations made apart from the
program, and every later round must write the same bytes. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run alternates untraced and
traced rounds; its counts and times are per traced round.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "mindpd", "__init__.py")):
        raise SystemExit(f"error: no mindpd sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import mindpd
    from mindpd import (asymptotics, cli, divergence, families,  # noqa: F401
                        montecarlo)
    if os.path.dirname(os.path.abspath(mindpd.__file__)) != os.path.join(
            SRC, "mindpd"):
        raise SystemExit(f"error: mindpd imported from {mindpd.__file__}")
    return types.SimpleNamespace(cli=cli, families=families,
                                 montecarlo=montecarlo,
                                 asymptotics=asymptotics,
                                 divergence=divergence)


def run_op(op):
    """Run one operation with its stdout and stderr captured. Returns
    (seconds, exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = op.run()
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    if code != 0:
        sys.stderr.write(f"[{op.name}] exit {code}\n{err.getvalue()}\n")
    return dt, code, out.getvalue()


def read_outputs(op):
    files = {}
    for path in op.outputs:
        with open(path, "rb") as fh:
            files[path] = fh.read()
    return files


def digest(files, stdout):
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.encode() + b"\0" + files[path] + b"\0")
    h.update(stdout.encode())
    return h.hexdigest()


class Run:
    """Rounds, latencies, failures and first-round outputs of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies = {op.name: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.first = {}         # op name -> (files, stdout) of round 1
        self.digests = {}       # op name -> digest of round 1
        self.problems = []
        self.fit_outputs = 0
        self.replication_rows = 0

    def round(self, count_outputs=False):
        wall = 0.0
        for op in self.ops:
            dt, code, stdout = run_op(op)
            wall += dt
            self.attempted += 1
            if code != 0:
                self.failed += 1
                continue
            self.latencies[op.name].append(dt)
            files = read_outputs(op)
            d = digest(files, stdout)
            if op.name not in self.digests:
                self.digests[op.name] = d
                self.first[op.name] = (files, stdout)
            elif self.digests[op.name] != d:
                self.problems.append(f"{op.name}: output differs between "
                                     f"rounds")
            if count_outputs:
                self.fit_outputs += op.fits
                for path, data in files.items():
                    if path.endswith("replications.csv"):
                        self.replication_rows += data.count(b"\n") - 1
        return wall

    def check(self):
        for op in self.ops:
            if op.name not in self.first:
                continue
            files, stdout = self.first[op.name]
            try:
                found = op.check(files, stdout)
            except Exception:
                found = [f"checker raised:\n{traceback.format_exc()}"]
            self.problems += [f"{op.name}: {p}" for p in found]


def main(argv=None):
    args = parse_args(argv)
    mp = import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, mp, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def measure(args, mp, workloads, work):
    ops, warmup = workloads.WORKLOADS[args.workload](args.seed, work, mp)
    for op in warmup:
        run_op(op)
    setup_s = time.perf_counter() - T_START

    run = Run(ops)
    tracer = None
    traced_wall = untraced_wall = 0.0
    traced_rounds = 0
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    t0 = time.perf_counter()
    while True:
        if tracer is None:
            run.round()
        else:
            untraced_wall += run.round()
            with tracer.installed():
                traced_wall += run.round(count_outputs=True)
            traced_rounds += 1
        if time.perf_counter() - t0 >= args.seconds:
            break

    run.check()
    if tracer is not None:
        fits = tracer.counts.get("estimation.fits", 0)
        if fits != run.fit_outputs + run.replication_rows:
            run.problems.append(
                f"traced fits {fits:g} != fit outputs {run.fit_outputs} + "
                f"replication rows {run.replication_rows}")
        values = tracer.metrics(traced_rounds, traced_wall, untraced_wall)
        units = {k: u for k, (u, _) in tracing.METRICS.items()}
    else:
        # each operation's fastest run over the rounds: slow phases of a
        # shared machine, which come and go every few seconds, drop out
        best = [min(v) for v in run.latencies.values() if v]
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(best) / sum(best) if best else 0.0,
            "op_p50_ms": 1e3 * statistics.median(best) if best else 0.0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for p in run.problems:
        sys.stderr.write(f"CHECK FAILED: {p}\n")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

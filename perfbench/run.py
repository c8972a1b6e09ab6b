"""miespec benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; miespec is imported from ``src/``, as
the tier-1 tests import it, so the run uses the kernel backend they use.
Load is a closed loop with one client: the next op starts when the previous
one returns.  Times are scaled to a nominal host speed measured between ops
(``hostspeed.py``), so that the host's own drift does not show as a change.  A run measures whole passes (every op of the workload once, in
seeded order) and starts new passes until ``--seconds`` have passed, with at
least two, so that every op can be checked against its first-pass output.

With ``--trace 0`` the result line holds the end-to-end metrics.  With
``--trace 1`` the first pass runs untraced, as the reference for the trace
overhead, and the later passes are traced; the result line holds the
per-layer metrics and the spans are written to
``.perfbench-traces/<workload>-seed<seed>.jsonl``.

Human-readable lines come first; the last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload in a process of its own, one after another, and ends with one
result whose metric names carry the workload as prefix.  ``correct`` is false when
an op's output drifted from its first pass or the program raised; ops whose
output misses a check are counted in ``failed``.  Exit code 0 means the run
completed, whatever it measured; 2 means miespec could not be set up.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from spans import Tracer, aggregate
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
# A fresh process's import time drifts with the host's file and page-fault
# speed, which the in-process reference does not see.  So each set-up is
# scaled by fresh processes that import numpy alone, run just before and
# after it: the same kind of work, and none of it miespec's.
_TIMED = "import time\nstart = time.perf_counter()\n{}\nprint(time.perf_counter() - start)"
SETUP_CODE = _TIMED.format("import miespec.cli\nmiespec.cli.build_parser()")
IMPORT_REFERENCE_CODE = _TIMED.format("import numpy")
IMPORT_NOMINAL_S = 0.1  # about the numpy import on a 2-vCPU x86-64 VM
MIN_PASSES = 2
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it
SHOWN_FAILURES = 20


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _timed(code):
    """Seconds a fresh process reports for ``code``."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("a set-up process failed:\n"
                           + proc.stderr.decode(errors="replace"))
    return float(proc.stdout)


def measure_setup():
    """Fresh processes that import miespec and build the CLI parser, as every
    CLI call does, each between two that import numpy alone: (set-up times,
    reference times), the latter one longer."""
    samples, references = [], [_timed(IMPORT_REFERENCE_CODE)]
    for _ in range(SETUP_RUNS):
        samples.append(_timed(SETUP_CODE))
        references.append(_timed(IMPORT_REFERENCE_CODE))
    return samples, references


def import_miespec():
    sys.path.insert(0, str(SRC))
    import miespec
    import miespec.cli  # noqa: F401  (binds miespec.cli)
    if Path(miespec.__file__).resolve().parent != SRC / "miespec":
        raise RuntimeError(f"miespec was imported from {miespec.__file__}, "
                           "not from this checkout's src/")
    return miespec


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def metadata(package, workload, seed):
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "presets": [[label, flags] for label, flags, _, _ in workload.presets],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version,
        "kernel_backend": getattr(package, "KERNEL_BACKEND", None),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workloads": {w.name: w.why for w in WORKLOADS.values()},
    }


class Run:
    """Ops of one run, in execution order, with their checks and timings."""

    def __init__(self, workload, rng, tracer):
        self.workload = workload
        self.rng = rng
        self.tracer = tracer
        self.speed = HostSpeed()  # samples between ops, untimed
        self.measured = 0.0       # summed op wall time
        self.records = []      # one dict per op
        self.pass_walls = []   # per pass: summed op wall time
        self.reference = {}    # op key -> digest of its first output
        self.drifted = 0
        self.errors = 0

    def run_pass(self, index, traced):
        ops = self.workload.ops()
        self.rng.shuffle(ops)
        first = len(self.records)
        for op in ops:
            self.records.append(self.run_op(op, index, traced))
            self.measured += self.records[-1]["wall"]
            self.speed.keep_up(self.measured)
        self.pass_walls.append(sum(r["wall"] for r in self.records[first:]))

    def run_op(self, op, index, traced):
        op_id = len(self.records)
        error = None
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.op(op_id):
                    result = op.call()
            else:
                result = op.call()
        except Exception:  # the program raised: count it and go on
            error = traceback.format_exc(limit=3)
        w1 = time.perf_counter()
        c1 = time.process_time()
        rec = {"id": op_id, "pass": index, "key": op.key, "traced": traced,
               "wall": w1 - w0, "start": w0, "cpu": c1 - c0, "bytes": 0}
        if error is not None:
            self.errors += 1
            rec.update(ok=False, detail=error)
            return rec
        try:
            ok, detail, identity, nbytes = op.check(result)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            ok, detail, identity, nbytes = (
                False, f"output does not parse: {exc!r}", b"", 0)
        rec.update(ok=ok, detail=detail, bytes=nbytes)
        digest = hashlib.blake2b(identity, digest_size=16).digest()
        if self.reference.setdefault(op.key, digest) != digest:
            self.drifted += 1
            rec.update(ok=False, detail="output differs from pass 0")
        return rec

    def measure(self, seconds, trace, package):
        start = time.perf_counter()
        index = 0
        while index < MIN_PASSES or time.perf_counter() - start < seconds:
            traced = trace and index > 0
            if traced and index == 1:
                self.tracer.install(package, _package_modules())
            self.run_pass(index, traced)
            index += 1
        self.tracer.uninstall()

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.records)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "miespec" or name.startswith("miespec."))]


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(run, setup_samples, references):
    """Times are scaled to the nominal host (hostspeed.py), each by the
    reference samples around it; the notes give this host's wall-clock
    figures next to them."""
    ms = [r["wall"] * 1e3 * run.speed.scale(r["start"], r["start"] + r["wall"])
          for r in run.records]
    wall_ms = [r["wall"] * 1e3 for r in run.records]
    tail_ms, tail_pct = tail(ms)
    setup = [took * IMPORT_NOMINAL_S * 2 / (before + after) for took, before, after
             in zip(setup_samples, references, references[1:])]
    attempted = len(run.records)
    failed = run.failed
    return [
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)} fresh processes, "
         f"{statistics.median(setup_samples):.3f} s wall "
         f"({min(setup_samples):.3f}-{max(setup_samples):.3f}); numpy import "
         f"{statistics.median(references):.3f} s wall "
         f"({min(references):.3f}-{max(references):.3f})"),
        ("ops_per_s", attempted / (sum(ms) / 1e3), "1/s",
         f"{attempted} ops in {sum(wall_ms) / 1e3:.2f} s wall over "
         f"{len(run.pass_walls)} passes; " + run.speed.describe()),
        ("op_ms_p50", statistics.median(ms), "ms",
         f"n={attempted}, {statistics.median(wall_ms):.2f} ms wall"),
        ("op_ms_tail", tail_ms, "ms",
         (f"p{tail_pct:.1f}, n={attempted}" if attempted > TAIL_BEYOND
          else f"max, n={attempted}: no percentile has {TAIL_BEYOND} samples "
               "beyond it") + f", {tail(wall_ms)[0]:.2f} ms wall"),
        ("ok_ratio", (attempted - failed) / attempted, "ratio",
         f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4f}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "MiB", "this process"),
    ]


# per-layer metric -> (span name, field, unit); fields are summed over the
# traced passes and divided by their number, except ratios
_SPAN_METRICS = [
    ("oracle.solve.calls", "oracle.solve", "calls", "calls/pass"),
    ("oracle.solve.busy_s", "oracle.solve", "busy", "s/pass"),
    ("oracle.solve.wait_s", "oracle.solve", "wait", "s/pass"),
    ("oracle.solve.rows", "oracle.solve", "units", "rows/pass"),
    ("oracle.solve.distinct_ratio", "oracle.solve", "distinct", "ratio"),
    ("oracle.build.busy_s", "oracle.build", "busy", "s/pass"),
    ("oracle.convergence.total_s", "oracle.convergence", "incl_busy", "s/pass"),
    ("oracle.grid.clamped", "oracle.grid", "units", "grids/pass"),
    ("specfun.gauss_laguerre.calls", "specfun.gauss_laguerre", "calls", "calls/pass"),
    ("specfun.gauss_laguerre.busy_s", "specfun.gauss_laguerre", "busy", "s/pass"),
    ("specfun.gauss_laguerre.nodes", "specfun.gauss_laguerre", "units", "nodes/pass"),
    ("specfun.gauss_laguerre.distinct_ratio", "specfun.gauss_laguerre", "distinct", "ratio"),
    ("specfun.laguerre.busy_s", "specfun.laguerre", "busy", "s/pass"),
    ("specfun.kummer_poly.busy_s", "specfun.kummer_poly", "busy", "s/pass"),
    ("wavefunction.norm_check.busy_s", "wavefunction.norm_check", "busy", "s/pass"),
    ("wavefunction.overlap.busy_s", "wavefunction.overlap", "busy", "s/pass"),
    ("wavefunction.eval_radial.busy_s", "wavefunction.eval_radial", "busy", "s/pass"),
    ("wavefunction.ode_residual.busy_s", "wavefunction.ode_residual", "busy", "s/pass"),
    ("spectrum.bound_state.calls", "spectrum.bound_state", "calls", "calls/pass"),
    ("spectrum.bound_state.busy_s", "spectrum.bound_state", "busy", "s/pass"),
    ("spectrum.spectrum_table.busy_s", "spectrum.spectrum_table", "busy", "s/pass"),
    ("ladder.fit.busy_s", "ladder.fit", "busy", "s/pass"),
    ("ladder.algebra.busy_s", "ladder.algebra", "busy", "s/pass"),
]
LAYERS = ("oracle", "specfun", "wavefunction", "spectrum", "ladder", "cli", "bench")


def per_layer(run):
    traced = [r for r in run.records if r["traced"]]
    traced_passes = sorted({r["pass"] for r in traced})
    passes = len(traced_passes)
    stats, overhead = aggregate(run.tracer.spans,
                                {r["id"]: r["pass"] for r in traced})
    empty = {"calls": 0, "busy": 0.0, "wall": 0.0, "incl_busy": 0.0, "units": 0}
    out = []
    for metric, span, field, unit in _SPAN_METRICS:
        st = stats.get(span, empty)
        if field == "distinct":
            value = st.get("distinct", 0) / st["calls"] if st["calls"] else 0.0
        elif field == "wait":
            value = (st["wall"] - st["busy"]) / passes
        else:
            value = st[field] / passes
        out.append((metric, value, unit, f"{st['calls']} spans"))

    layer_busy = dict.fromkeys(LAYERS, 0.0)
    for name, st in stats.items():
        layer_busy[name.split(".")[0]] += st["busy"]
    for layer in LAYERS:
        if layer != "cli":
            out.append((f"{layer}.busy_s", layer_busy[layer] / passes, "s/pass",
                        "busy self time of the layer"))
    cpu = sum(r["cpu"] for r in traced)
    wall = sum(r["wall"] for r in traced)
    untraced = [w for i, w in enumerate(run.pass_walls) if i not in traced_passes]
    out += [
        ("cli.self_s", layer_busy["cli"] / passes, "s/pass",
         "busy self time of cli.main and cli._verify_channel"),
        ("cli.output_bytes", sum(r["bytes"] for r in traced) / passes,
         "bytes/pass", "output files written"),
        ("cli.cpu_per_wall", cpu / wall, "ratio", "process CPU over op wall time"),
        ("trace.overhead_ratio",
         statistics.mean(run.pass_walls[i] for i in traced_passes)
         / statistics.mean(untraced), "ratio",
         f"traced over untraced pass wall, {passes} traced passes"),
        ("trace.pass_cpu_s", cpu / passes, "s/pass", "process CPU of the ops"),
        ("trace.cpu_coverage", (sum(layer_busy.values()) + overhead) / cpu, "ratio",
         f"busy self times of all layers plus tracer time ({overhead:.4f} s) over process CPU"),
    ]
    return out


def report(run, metrics):
    failed = run.failed
    print(f"perfbench {run.workload.name}: {len(run.records)} ops, "
          f"{len(run.pass_walls)} passes, {failed} failed, "
          f"{run.drifted} drifted, {run.errors} raised")
    failures = [r for r in run.records if not r["ok"]]
    for rec in failures[:SHOWN_FAILURES]:
        print(f"  FAILED {rec['key']} (pass {rec['pass']}): "
              + rec["detail"].strip().splitlines()[-1])
    if len(failures) > SHOWN_FAILURES:
        print(f"  ... and {len(failures) - SHOWN_FAILURES} more failed ops")
    width = max(len(m[0]) for m in metrics)
    for name, value, unit, note in metrics:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<10} {note}")
    result = {
        "correct": run.drifted == 0 and run.errors == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }
    print(json.dumps(result))


def run_all(args):
    """Every workload in a fresh process, so that each has its own set-up
    and peak RSS; their output is passed through, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "miespec" / "__init__.py").is_file():
        print(f"perfbench: no miespec package under {SRC}", file=sys.stderr)
        return 2
    try:
        setup = None if args.trace else measure_setup()  # only --trace 0 reports it
        package = import_miespec()
    except (RuntimeError, OSError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot set up miespec: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](package, rng, workdir)
        meta = metadata(package, workload, args.seed)
        print("meta " + json.dumps(meta, sort_keys=True))
        run = Run(workload, rng, Tracer())
        run.measure(args.seconds, bool(args.trace), package)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(run)
        trace_dir = ROOT / ".perfbench-traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        run.tracer.dump(path, meta)
        print(f"spans: {len(run.tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(run, *setup)
    report(run, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

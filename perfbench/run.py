#!/usr/bin/env python3
"""Run one catsim benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload dense-cap --seed 1 --seconds 20 --trace 0

catsim is imported from the ``src/`` directory beside ``perfbench/``; the
workloads are described in ``perfbench/NOTES.md``.  With ``--trace 0`` the
run reports end-to-end metrics and installs no wrappers; op times in them are
rescaled by the machine's speed around each op (``reference.py``), and the
plain wall-clock figures are printed on the summary line.  With ``--trace 1``
every op runs twice, once plain and once with every public catsim function
wrapped in a span, and the run reports per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the environment stamp.
Per-op details, and in traced runs the spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: on a shared two-core
# machine two BLAS threads stall whenever a neighbour holds one core, which
# doubled the run-to-run spread of dense-cap.  Must precede numpy's import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from spans import Recorder
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_SAMPLES = 3  # this process plus two fresh child processes

# Reference-kernel bursts between ops: each lasts this share of the op before
# it, and at least BURST_MIN_S.
BURST_SHARE = 0.1
BURST_MIN_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "ops_per_s_norm": "1/s",
    "op_s_p50_norm": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Functions whose calls and self time are reported per op in traced runs.
TRACED_FUNCTIONS = (
    "cats.build_cat",
    "core.to_density",
    "core.DensityMatrix",
    "core.partial_trace",
    "core.partial_transpose",
    "core.hermitian_spectrum",
    "noise.lose_particles",
    "noise.depolarize_all",
    "entanglement.negativity",
    "entanglement.bisect_threshold",
    "entanglement.vanishing_noise_threshold",
    "analytic.coefficients",
    "analytic.dominant_eigenvalues",
    "analytic.approx_negativity",
    "analytic.approx_log_negativity",
    "analytic.large_n_threshold",
    "experiments.fig4_records",
    "experiments.render_csv",
    "experiments.write_records",
    "cli.main",
)

PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in TRACED_FUNCTIONS
       for kind, unit in (("calls", "count/op"), ("self_s", "s/op"))},
    "core.hermitian_spectrum.dim_max": "count",
    "core.hermitian_spectrum.work_dim3": "count/op",
    "noise.depolarize_all.bytes_computed": "B/op",
    "experiments.write_records.bytes": "B/op",
    "entanglement.evals_per_threshold": "count",
    "op.uncovered_s": "s",
    "op.uncovered_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def import_catsim():
    """Import catsim from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "catsim" / "__init__.py").is_file():
        raise SystemExit(f"catsim sources not found under {src}")
    sys.path.insert(0, str(src))
    import catsim
    import catsim.cli

    if Path(catsim.__file__).resolve().parent != (src / "catsim").resolve():
        raise SystemExit(f"imported catsim from {catsim.__file__}, not from {src}")
    return catsim


def setup(workload, seed, scratch):
    """Import catsim, draw the first round of inputs and run the warm-up op.

    Returns (catsim, rng, first round, seconds taken).  The seconds are
    rescaled by a reference-kernel burst run right after set-up, like op
    times.  The warm-up input is fixed per workload, so set-up costs the same
    for every seed.
    """
    t0 = time.perf_counter()
    cs = import_catsim()
    rng = random.Random(seed)
    first = workload.round(rng)
    raw = workload.run(cs, workload.WARMUP, scratch)
    elapsed = time.perf_counter() - t0
    problems = workload.check(cs, workload.WARMUP, workload.finish(workload.WARMUP, raw, scratch))
    if problems:
        raise SystemExit(f"warm-up op failed its check: {problems}")
    import reference

    probe = reference.SpeedProbe(reference.KERNELS[workload.REFERENCE])
    ref_s = probe.burst(max(BURST_MIN_S, BURST_SHARE * elapsed))
    return cs, rng, first, elapsed * reference.NOMINAL_S[workload.REFERENCE] / ref_s


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(cs, args) -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "catsim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "catsim_version": cs.__version__,
        "catsim_commit": commit,
        "catsim_src_sha256": src_hash.hexdigest(),
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Run:
    """The measured loop: whole rounds until ``seconds`` of op time are spent.

    A burst of the workload's reference kernel runs before the first op and
    after every op, outside op timing, so each op can be rescaled by the
    machine's speed around it (see ``reference.py``).
    """

    def __init__(self, cs, workload, scratch, tracer=None, rec=None):
        self.cs, self.wl, self.scratch = cs, workload, scratch
        self.tracer, self.rec = tracer, rec
        self.ops = []
        import reference  # imports numpy, which set-up is timed importing

        self.probe = reference.SpeedProbe(reference.KERNELS[workload.REFERENCE])
        self.nominal_s = reference.NOMINAL_S[workload.REFERENCE]

    def _timed(self, inp, traced: bool):
        """Run one copy of an op; return (seconds, problems, finished output)."""
        if traced:
            self.rec.op = len(self.ops)
            self.tracer.install()
            root = self.rec.begin("bench.op")
        t = time.perf_counter()
        try:
            raw, error = self.wl.run(self.cs, inp, self.scratch), None
        except Exception as exc:  # a failing op is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t
        if traced:
            self.rec.end(root)
            self.tracer.uninstall()
        if error:
            return elapsed, [error], None
        try:
            out = self.wl.finish(inp, raw, self.scratch)
            return elapsed, self.wl.check(self.cs, inp, out), out
        except Exception as exc:
            return elapsed, [f"check raised {type(exc).__name__}: {exc}"], None

    def op(self, inp) -> None:
        entry = {"input": list(inp)}
        if self.tracer is None:
            entry["s"], entry["problems"], out = self._timed(inp, False)
        else:
            # alternate which copy runs first so neither always gets warm caches
            order = (False, True) if len(self.ops) % 2 == 0 else (True, False)
            results = {traced: self._timed(inp, traced) for traced in order}
            entry["s"], plain_problems, out = results[False]
            entry["traced_s"], traced_problems, _ = results[True]
            entry["problems"] = plain_problems + traced_problems
            entry["uncovered_s"] = next(own for span, own in self.rec.close_op().values()
                                        if span.name == "bench.op")
        if not entry["problems"]:
            render = self.wl.render(inp, out)
            entry["output_sha256"] = hashlib.sha256(render.encode("utf-8")).hexdigest()
        self.ops.append(entry)

    def measure(self, first_round, rng, seconds: float) -> None:
        batch = first_round
        spent = 0.0
        self.probe.burst(BURST_MIN_S)
        while True:
            for inp in batch:
                self.op(inp)
                entry = self.ops[-1]
                self.probe.burst(max(BURST_MIN_S, BURST_SHARE * entry["s"]))
                entry["ref_s"] = self.probe.around(len(self.ops) - 1)
                entry["s_norm"] = entry["s"] * self.nominal_s / entry["ref_s"]
                spent += entry["s"] + entry.get("traced_s", 0.0)
            if spent >= seconds:
                return
            batch = self.wl.round(rng)


def end_to_end(run: Run, setup_samples) -> dict:
    """The gated metrics, with op times rescaled to the reference machine."""
    ops = run.ops
    ok = sum(1 for o in ops if not o["problems"])
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s_norm": ok / sum(o["s_norm"] for o in ops),
        "op_s_p50_norm": statistics.median(o["s_norm"] for o in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": ok / len(ops),
    }


def wall_clock(run: Run) -> dict:
    """The same throughput and latency in plain wall-clock seconds, and the
    machine's speed during the run (median kernel time over nominal)."""
    ops = run.ops
    ok = sum(1 for o in ops if not o["problems"])
    return {
        "ops_per_s": ok / sum(o["s"] for o in ops),
        "op_s_p50": statistics.median(o["s"] for o in ops),
        "slowdown": statistics.median(run.probe.bursts) / run.nominal_s,
    }


def per_layer(run: Run) -> dict:
    rec, n = run.rec, len(run.ops)
    values = {}
    for fn in TRACED_FUNCTIONS:
        values[f"{fn}.calls"] = rec.calls[fn] / n
        values[f"{fn}.self_s"] = rec.self_s[fn] / n
    values["core.hermitian_spectrum.dim_max"] = rec.maxima["core.hermitian_spectrum.dim_max"]
    for key in ("core.hermitian_spectrum.work_dim3", "noise.depolarize_all.bytes_computed",
                "experiments.write_records.bytes"):
        values[key] = rec.counts[key] / n
    thresholds = rec.calls["entanglement.vanishing_noise_threshold"]
    values["entanglement.evals_per_threshold"] = (
        rec.calls["entanglement.negativity"] / thresholds if thresholds else 0.0)
    values["op.uncovered_s"] = statistics.median(o["uncovered_s"] for o in run.ops)
    values["op.uncovered_share"] = (
        sum(o["uncovered_s"] for o in run.ops) / sum(o["traced_s"] for o in run.ops))
    values["trace.overhead_ratio"] = (
        sum(o["traced_s"] for o in run.ops) / sum(o["s"] for o in run.ops))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print the seconds (used by the benchmark itself)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        cs, rng, first, setup_s = setup(workload, args.seed, scratch)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            rec = Recorder()
            run = Run(cs, workload, scratch, Tracer(cs, rec), rec)
        else:
            run = Run(cs, workload, scratch)
        run.measure(first, rng, args.seconds)
        if args.trace:
            metrics = per_layer(run)
            units = PER_LAYER
        else:
            metrics = end_to_end(run, [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)])
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for o in run.ops if o["problems"])
    first_outputs = [o.get("output_sha256", "failed") for o in run.ops[:len(first)]]
    replay = random.Random(args.seed)
    stamp = environment(cs, args)
    stamp["inputs_sha256"] = sha256_lines(repr(workload.round(replay)) for _ in range(8))
    stamp["outputs_sha256"] = sha256_lines(first_outputs)
    stamp["ops"] = len(run.ops)
    stamp["error_rate"] = failed / len(run.ops)
    stamp.update(wall_clock(run))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"environment": stamp, "metrics": metrics, "ops": run.ops}
    if args.trace:
        rec.write(OUT / f"{tag}-spans.csv")
        detail["layers"] = {name: {"calls": rec.calls[name], "self_s": rec.self_s[name],
                                   "total_s": rec.total_s[name]}
                            for name in sorted(rec.calls) if rec.calls[name]}
        for i, o in enumerate(run.ops):
            print(f"op {i} {o['input']}: {o['traced_s']:.4f} s traced, "
                  f"{o['uncovered_s']:.4f} s outside every wrapped span")
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for o in run.ops:
        for problem in o["problems"]:
            print(f"FAILED {o['input']}: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(run.ops)} ops, error_rate {stamp['error_rate']:.3g}, "
          f"ops_per_s {stamp['ops_per_s']:.4g} 1/s, op_s_p50 {stamp['op_s_p50']:.4g} s "
          f"(n={len(run.ops)}), slowdown {stamp['slowdown']:.3f} against the reference machine")
    print(json.dumps({"environment": stamp}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

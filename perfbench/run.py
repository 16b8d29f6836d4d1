#!/usr/bin/env python3
"""holonet benchmark: train, solve the oracle, evaluate, write artifacts.

Each run of a workload does what `holonet bench NAME --out-dir DIR` does,
through the public API: `bench.run_benchmark` with the workload's
overrides, then `checkpoint.save_checkpoint`, `cli.write_loss_csv` and
`cli.write_fields_csv`. Runs go one after another, each in a fresh Python
process as a `holonet bench` user gets it, all with the seed given, until
`--seconds` is used up (at least two runs). A fresh process pays the
import, the cold oracle and the first-run state of the allocator every
time, so no run differs from the others in what it pays.

    python3 perfbench/run.py --workload plate-hole --seed 0 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced runs and prints the per-layer metrics of the traced ones, plus
the tracing overhead. Each run is checked (no divergence, finite errors
under the workload's ceiling, the oracle's own checks, readable artifacts,
bit-identical repeats); a run failing any check counts in `failed`. The
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
RUN_TIMEOUT_S = 170  # one run; the longest takes about 25 s

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "train_s": "s", "epoch_ms.p50": "ms",
    "epoch_ms.p95": "ms", "oracle_s": "s", "eval_s": "s", "peak_rss_mb": "MB",
}
# printed beside them but carried by the checks or left without a bound:
# rel_l2 varies across seeds by far more than any bound allows, fail_frac
# is zero when all is well, and on lshape-rad epoch_ms.p99 lies in the
# machine-noise tail (spread up to 0.26 across seeds), while p95 lies inside
# the test-loss epochs (every 10th) of all three workloads
UNBOUNDED = {"epoch_ms.p99": "ms", "rel_l2": "1", "fail_frac": "1"}
OPS = ("kanlayer", "kanmat", "stack", "mul", "add", "cmul", "sum", "abs2",
       "exp", "matmul")
# the per-layer metrics of BENCHMARK.json: counts, and times of layers that
# every workload runs
PER_LAYER = {
    "cdiff.ops_per_epoch": "count", "cdiff.record_ms_per_epoch": "ms",
    "cdiff.backward_ms_per_epoch": "ms", "cdiff.tape_mb_per_epoch": "MB",
    **{f"cdiff.ops.{op}": "count" for op in OPS},
    **{f"cdiff.record_ms.{op}": "ms" for op in ("add", "cmul", "sum", "abs2")},
    "nets.at_ms_per_epoch": "ms",
    "train.loss_and_grad_ms_per_epoch": "ms", "train.adam_ms_per_epoch": "ms",
    "train.fit_self_ms_per_epoch": "ms", "train.loss_value_ms": "ms",
    "train.batch_context_ms": "ms", "train.predict_fields_ms": "ms",
    "geometry.contains_calls": "count", "geometry.contains_ms": "ms",
    "bench.oracle_solve_s": "s", "bench.oracle_assemble_s": "s",
    "bench.cg_iters": "count", "bench.relative_l2_ms": "ms",
    "checkpoint.save_ms": "ms", "checkpoint.bytes": "bytes",
    "cli.write_fields_ms": "ms", "cli.write_loss_ms": "ms",
    "trace.overhead_ms_per_epoch": "ms",
}
# printed beside them but not declared: each times a layer that only some
# workloads run, so on the others it reads exactly 0 on every run (the
# per-op table shows record_ms for kanlayer, kanmat, stack and mul)
LOCAL_LAYERS = {
    "laurent.at_ms_per_epoch": "ms", "representations.fields_ms_per_epoch": "ms",
    "representations.vekua_ms": "ms", "train.residual_values_ms": "ms",
    "geometry.distance_ms": "ms", "geometry.rad_resample_ms": "ms",
}
SPAN_COVERAGE_MIN = 0.9  # traced spans must account for this share of the loop

median = statistics.median


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: seconds per run, no error ceiling")
    # set by the benchmark for the process that does one run
    ap.add_argument("--one-run", metavar="OUT_DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def percentile(xs, p):
    """Linear-interpolation percentile, as numpy's default."""
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# One run, in its own process
# ---------------------------------------------------------------------------


def import_holonet():
    """Import holonet from this checkout's src/ into a namespace."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import holonet
    from holonet import bench, cdiff, checkpoint, cli, geometry, laurent, nets
    from holonet import representations, train
    if Path(holonet.__file__).resolve().parent != SRC / "holonet":
        raise ImportError(f"holonet imported from {holonet.__file__}, not {SRC}")
    return SimpleNamespace(np=np, scipy=scipy, bench=bench, cdiff=cdiff,
                           checkpoint=checkpoint, cli=cli, geometry=geometry,
                           laurent=laurent, nets=nets,
                           representations=representations, train=train)


def environment(hn):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = hn.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": hn.np.__version__,
        "scipy": hn.scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


class Probes:
    """The two timestamps a run needs from inside run_benchmark: when fit
    returns, and how long the oracle takes."""

    def __init__(self, hn, oracle_name):
        self.fit_exit = 0.0
        self.oracle_s = 0.0
        fit = hn.train.fit
        oracle = getattr(hn.bench, oracle_name)

        def fit_probe(*args, **kwargs):
            try:
                return fit(*args, **kwargs)
            finally:
                self.fit_exit = time.perf_counter()

        def oracle_probe(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return oracle(*args, **kwargs)
            finally:
                self.oracle_s += time.perf_counter() - t0

        hn.train.fit = fit_probe
        setattr(hn.bench, oracle_name, oracle_probe)


def one_run(args):
    """Import, run, time and check once; prints the record as JSON."""
    t_start = time.perf_counter()
    hn = import_holonet()
    t_import = time.perf_counter()
    np = hn.np
    wl = WORKLOADS[args.workload]
    out_dir = Path(args.one_run)
    probes = Probes(hn, wl.oracle)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(hn, wl.oracle)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report, pots, prob, domain = hn.bench.run_benchmark(
            wl.bench, seed=args.seed, **wl.settings(hn.train, args.tiny))
    t_bench = time.perf_counter()
    ckpt = out_dir / "checkpoint.json"
    hn.checkpoint.save_checkpoint(ckpt, pots)
    hn.cli.write_loss_csv(out_dir / "loss.csv", report.history)
    hn.cli.write_fields_csv(out_dir / "fields.csv", prob, pots, domain, 64)
    with open(out_dir / "report.json", "w") as f:
        json.dump(report.to_json_dict(), f, indent=2)
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.restore()

    secs = [h.seconds for h in report.history]
    losses = [(h.train_loss, h.test_loss) for h in report.history]
    rel_l2 = max(report.errors.values())
    rec = {
        "wall_s": t_end - t_start,
        "setup_s": probes.fit_exit - secs[-1] - t_start,
        "import_s": t_import - t_start,
        "train_s": report.train_seconds,
        "oracle_s": probes.oracle_s,
        "eval_s": t_bench - probes.fit_exit - probes.oracle_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epoch_ms": [(b - a) * 1e3 for a, b in zip([0.0] + secs, secs)],
        "rel_l2": rel_l2,
        "errors": report.errors,
        "losses": hashlib.sha256(repr(losses).encode()).hexdigest(),
        "env": environment(hn),
        "failures": [],
    }

    def check(ok, what):
        if not ok:
            rec["failures"].append(what)

    check(all(np.isfinite(v) for v in report.errors.values()), "non-finite error")
    if not args.tiny:
        check(rel_l2 <= wl.rel_l2_ceiling,
              f"rel_l2 {rel_l2:.3e} above ceiling {wl.rel_l2_ceiling:g}")
    check(not any("resonance" in str(w.message) for w in caught),
          "oracle near resonance")
    if wl.oracle_residual_limit:
        res = report.extra["oracle_traction_residual"]
        check(res <= wl.oracle_residual_limit,
              f"oracle traction residual {res:.2e} above {wl.oracle_residual_limit:g}")
    loaded = hn.checkpoint.load_checkpoint(ckpt)
    check(all(np.array_equal(a, b) for p, q in zip(pots, loaded)
              for a, b in zip(p.param_arrays(), q.param_arrays())),
          "checkpoint does not round-trip")
    with open(out_dir / "loss.csv") as f:
        check(sum(1 for _ in f) == len(report.history) + 1, "loss.csv row count")
    with open(out_dir / "fields.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    values = np.array([[float(v) for v in row[2:]] for row in rows])
    check(len(rows) > 0 and np.isfinite(values).all(), "fields.csv values not finite")
    # known defect, reported rather than failed: under numpy 2 the x/y
    # columns are written as 'np.float64(...)', not as plain numbers
    rec["xy_plain"] = all(_is_number(v) for row in rows for v in row[:2])

    if tracer is not None:
        check(all(i == 0 for i in tracer.cg_info), f"CG info {tracer.cg_info}")
        rec["layers"] = tracer.layer_metrics(secs[-1], OPS)
        rec["layers"]["checkpoint.bytes"] = ckpt.stat().st_size
        rec["ops"] = tracer.ops_per_epoch()
        cover = rec["coverage"] = tracer.fit_children / secs[-1]
        check(args.tiny or SPAN_COVERAGE_MIN <= cover <= 1.0,
              f"traced spans cover {cover:.1%} of the training loop")
    print(json.dumps(rec))
    return 0


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# The measurement: runs until --seconds is used up, then the result
# ---------------------------------------------------------------------------


def measure(args):
    """Runs one after another (at least two); with --trace 1 every second
    run is traced. Returns (completed run records, attempted)."""
    out_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    runs, durations = [], []
    t_begin = time.perf_counter()
    try:
        while len(durations) < 2 or (
                time.perf_counter() - t_begin + median(durations) <= args.seconds):
            n = len(durations) + 1
            traced = bool(args.trace) and n % 2 == 0
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(int(traced)),
                   "--one-run", str(out_dir)] + (["--tiny"] if args.tiny else [])
            t0 = time.perf_counter()
            try:
                out = subprocess.run(cmd, capture_output=True, text=True,
                                     env=env, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                out = None
            durations.append(time.perf_counter() - t0)
            if out is None or out.returncode != 0:
                # a diverged or broken run is a result: count it and go on
                detail = "timed out" if out is None else out.stderr.strip()[-2000:]
                print(f"run {n}: FAILED\n{detail}", flush=True)
                continue
            rec = json.loads(out.stdout.strip().splitlines()[-1])
            rec["traced"] = traced
            if runs and (rec["losses"], rec["errors"]) != (runs[0]["losses"],
                                                           runs[0]["errors"]):
                rec["failures"].append("not bit-identical to the first run")
            runs.append(rec)
            print(f"run {n}{' (traced)' if traced else ''}: "
                  f"wall {rec['wall_s']:.3f} s, rel_l2 {rec['rel_l2']:.4e}, "
                  + ("ok" if not rec["failures"] else
                     "FAILED: " + "; ".join(rec["failures"])), flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    return runs, len(durations)


def end_to_end(runs):
    epochs = [e for r in runs for e in r["epoch_ms"]]
    out = {k: median([r[k] for r in runs])
           for k in ("setup_s", "wall_s", "train_s", "oracle_s", "eval_s",
                     "peak_rss_mb")}
    for p in (50, 95, 99):
        out[f"epoch_ms.p{p}"] = percentile(epochs, p)
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "holonet" / "__init__.py").is_file():
        print(f"error: no holonet sources under {SRC}", file=sys.stderr)
        return 2
    if args.one_run:
        return one_run(args)

    wl = WORKLOADS[args.workload]
    runs, attempted = measure(args)
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no run completed", file=sys.stderr)
        return 1
    failed = attempted - sum(1 for r in runs if not r["failures"])

    e2e = end_to_end(plain)
    print("env " + json.dumps(plain[0]["env"]))
    print(f"workload {wl.name} seed {args.seed}: {len(plain)} untraced run(s)"
          + (f", {len(traced)} traced" if traced else ""))
    for name, unit in END_TO_END.items():
        print(f"  {name:<24} {e2e[name]:.6g} {unit}")
    print(f"    (of setup_s, import {median([r['import_s'] for r in plain]):.6g} s)")
    print(f"  {'epoch_ms.p99':<24} {e2e['epoch_ms.p99']:.6g} ms")
    print(f"  {'rel_l2':<24} {median([r['rel_l2'] for r in runs]):.6g} 1 "
          f"(ceiling {wl.rel_l2_ceiling:g})")
    print(f"  {'fail_frac':<24} {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} runs)")
    if not all(r["xy_plain"] for r in runs):
        print("  known defect: fields.csv x/y columns are not plain numbers "
              "(cli.write_fields_csv writes repr of numpy scalars)")

    if args.trace:
        layers = {k: median([r["layers"][k] for r in traced])
                  for k in traced[0]["layers"]}
        p50 = percentile([e for r in traced for e in r["epoch_ms"]], 50)
        layers["trace.overhead_ms_per_epoch"] = p50 - e2e["epoch_ms.p50"]
        print(f"  tracing overhead: epoch p50 {p50:.4f} ms traced vs "
              f"{e2e['epoch_ms.p50']:.4f} ms untraced; spans cover "
              f"{median([r['coverage'] for r in traced]):.1%} of the training loop")
        print("  tape primitives per epoch: " + ", ".join(
            f"{op} {count:g} ({ms:.4f} ms)"
            for op, (count, ms) in traced[0]["ops"].items()))
        for name, unit in {**PER_LAYER, **LOCAL_LAYERS}.items():
            print(f"  {name:<40} {layers[name]:.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""moldiff benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload train-gate --seed 1 --seconds 20 --trace 0

Run from the repository root (any working directory works; paths are found
from this file).  The program under test is ``src/moldiff`` of the same
checkout, never an installed copy.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
rounds untraced for half the time, then replays the same rounds from a fresh
set-up with spans recorded around moldiff's public functions, checks that
both passes produced bitwise-equal outputs, and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit
code 0 when every check passed, 1 when one failed, 2 when the program or the
arguments are unusable.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
# percentiles tried for a latency tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _import_program():
    """Import moldiff from this checkout's ``src``; None when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "moldiff", "__init__.py")):
        return None
    sys.path[:] = [p for p in sys.path if os.path.abspath(p) != os.path.dirname(os.path.abspath(__file__))]
    sys.path[:0] = [SRC, ROOT]
    import moldiff

    if not os.path.abspath(moldiff.__file__).startswith(SRC + os.sep):
        return None
    return moldiff


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(load_at_start) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "load_average_at_start": list(load_at_start),
        "machine_settings_changed": False,
        "note": "thread counts left at their defaults; no pinning, no cache dropping",
    }


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh interpreters: imports, input generation, model
    init and checkpoint write, as each child measures it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def measure(workload, seed: int, seconds: float, workdir: str, rounds: int | None = None,
            span=None) -> list:
    """Set up, then run rounds until ``seconds`` have passed (at least one),
    or exactly ``rounds`` rounds when given."""
    kwargs = {} if span is None else {"span": span}
    state = workload.setup(seed, workdir)
    done = []
    t0 = time.perf_counter()
    while (len(done) < rounds) if rounds is not None else (
            not done or time.perf_counter() - t0 < seconds):
        done.append(workload.run_round(state, len(done), **kwargs))
    return done


def latency_metrics(prefix: str, values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond
    it (0 when there are fewer than twenty samples), with the count."""
    import numpy as np

    n = len(values)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), 0.0)
    return {
        f"{prefix}_p50_ms": (float(np.median(values)) if n else 0.0, "ms"),
        f"{prefix}_tail_ms": (float(np.percentile(values, pct)) if pct else 0.0, "ms"),
        f"{prefix}_tail_pct": (pct, "%"),
        f"{prefix}_count": (n, "count"),
    }


def layer_metrics(tracer, work: int, overhead: float) -> dict:
    """Per-layer metrics of a traced pass that did ``work`` operations
    (training steps plus sampled chains), per operation unless the unit
    says otherwise.  The benchmark counts the operations itself, so a
    program that batches chains into one call is measured per chain too."""
    totals = tracer.layer_totals()
    ops = max(work, 1)

    def per_op(name, key):
        return totals.get(name, {}).get(key, 0) / ops

    def ms(name, key="total_ns"):
        return (per_op(name, key) / 1e6, "ms/op")

    def calls(name):
        return (per_op(name, "calls"), "calls/op")

    encoder_calls = sum(tracer.input_calls.values())
    out = {
        "autodiff.tape_nodes": (tracer.nodes / ops, "nodes/op"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.adam_step_ms": ms("autodiff.adam_step"),
        "autodiff.load_checkpoint_ms": ms("autodiff.load_checkpoint"),
        "objectives.total_loss_self_ms": ms("objectives.total_loss", "self_ns"),
        "objectives.loss_2d_to_3d_ms": ms("objectives.loss_2d_to_3d"),
        "objectives.loss_3d_to_2d_ms": ms("objectives.loss_3d_to_2d"),
        "encoders.encode_2d_ms": ms("encoders.encode_2d"),
        "encoders.encode_3d_ms": ms("encoders.encode_3d"),
        "encoders.encode_2d_calls": calls("encoders.encode_2d"),
        "encoders.encode_3d_calls": calls("encoders.encode_3d"),
        "encoders.redundant_call_ratio": (
            sum(tracer.input_repeats.values()) / encoder_calls if encoder_calls else 0.0,
            "ratio"),
        "scorenets.conf_score_self_ms": ms("scorenets.conf_score", "self_ns"),
        "scorenets.topo_scores_self_ms": ms("scorenets.topo_scores", "self_ns"),
        "scorenets.conf_score_calls": calls("scorenets.conf_score"),
        "scorenets.topo_scores_calls": calls("scorenets.topo_scores"),
        "geom.edge_frames_ms": ms("geom.edge_frames"),
        "geom.rbf_expand_ms": ms("geom.rbf_expand"),
        "sde.pc_sample_self_ms": ms("sde.pc_sample", "self_ns"),
        "sde.predictor_step_ms": ms("sde.predictor_step"),
        "sde.langevin_corrector_self_ms": ms("sde.langevin_corrector", "self_ns"),
        "sampling.sample_topology_self_ms": ms("sampling.sample_topology", "self_ns"),
        "moldata.read_corpus_ms": ms("moldata.read_corpus"),
        "moldata.write_corpus_ms": ms("moldata.write_corpus"),
        "moldata.decode_topology_ms": ms("moldata.decode_topology"),
        "metrics.cov_mat_ms": ms("metrics.cov_mat"),
        # one set-up per traced pass, so this one is per set-up
        "synthetic.gen_synthetic_ms": (
            totals.get("synthetic.gen_synthetic", {}).get("total_ns", 0) / 1e6, "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    lat = tracer.op_latencies_ms()
    out.update(latency_metrics("train.step", lat.get("step", [])))
    out.update(latency_metrics("sampling.conf_chain", lat.get("conf_chain", [])))
    out.update(latency_metrics("sampling.topo_chain", lat.get("topo_chain", [])))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny model and inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()

    if _import_program() is None:
        print(f"error: no moldiff sources under {SRC}", file=sys.stderr)
        return 2
    from perfbench import spans, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.setup_only:
            workload.setup(args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        return _run(args, workload, spans, load_at_start, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, spans, load_at_start, workdir) -> int:
    prov = provenance(load_at_start)
    print("provenance " + json.dumps(prov, sort_keys=True))
    setups = setup_seconds(args)
    dirs = [os.path.join(workdir, tag) for tag in ("a", "b")]
    for d in dirs:
        os.makedirs(d)

    problems: list[str] = []
    if args.trace == 0:
        rounds = measure(workload, args.seed, args.seconds, dirs[0])
        # a second run of the same seed must reproduce the first round bitwise
        again = measure(workload, args.seed, 0, dirs[1], rounds=1)
        if again[0].digest != rounds[0].digest:
            problems.append("a second run of round 0 with the same seed differs")
        counted = rounds
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (statistics.median(r.work / r.wall_s for r in rounds), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        plain = measure(workload, args.seed, args.seconds / 2.0, dirs[0])
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup_and_rounds"):
                traced = measure(workload, args.seed, 0, dirs[1], rounds=len(plain),
                                    span=tracer.span)
        finally:
            tracer.uninstall()
        for i, (a, b) in enumerate(zip(plain, traced)):
            if a.digest != b.digest:
                problems.append(f"round {i}: traced output differs from untraced")
        counted = plain + traced
        overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1.0
        metrics = layer_metrics(tracer, sum(r.work for r in traced), overhead)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    for r in counted:
        problems.extend(r.problems)
    attempted = sum(r.attempted for r in counted)
    failed = sum(r.failed for r in counted)
    if problems and failed == 0:
        failed = 1  # a failed check that names no single operation
    print(f"workload {args.workload} seed {args.seed}: {len(counted)} rounds, "
          f"{attempted} operations, {failed} failed (failed_ratio {failed / attempted:.4g})")
    print(f"set-up runs (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"round rates (ops/s): {', '.join(f'{r.work / r.wall_s:.4f}' for r in counted)}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

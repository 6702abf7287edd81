"""fruitnet benchmark: one workload per run, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload train_hsv_gray_aug --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Human-readable lines come first, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run (machine, every metric,
checks, and for traced runs the spans) goes to ``.perfbench/results/``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench"

# name, unit: the end-to-end metrics every workload reports (see README.md)
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("images_per_s", "images/s"),
    ("p50_ms", "ms"),
]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _runtime_blas():
    """(thread count, config string) from the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def machine_info(np, threads):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    runtime_threads, runtime_config = _runtime_blas()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_runtime": runtime_config,
        "blas_threads_requested": threads,
        "blas_threads_runtime": runtime_threads,
        "build_shards_threads": threads,
    }


def conv_table(net, batch):
    """FLOPs and im2col bytes per conv layer, computed from shapes."""
    rows, side = [], net.input_height
    depths = (net.input_channels,) + net.conv_maps
    k = net.kernel_size
    for i in range(4):
        patch = batch * side * side * k * k * depths[i]
        rows.append(
            {
                "layer": f"conv{i + 1}",
                "output": [batch, side, side, depths[i + 1]],
                "fwd_gflop": 2 * patch * depths[i + 1] / 1e9,
                "bwd_gflop": 2 * patch * depths[i + 1] * (1 if i == 0 else 2) / 1e9,
                "im2col_mb": 4 * patch / 1e6,
            }
        )
        side = -(-side // 2)
    return rows


def main(argv=None):
    sys.dont_write_bytecode = True
    # BLAS and shard-building threads stay at or below the usable CPUs (and 2),
    # set for this process only, before numpy is first imported
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    try:
        import fruitnet
    except ImportError as exc:
        print(f"perfbench: cannot import fruitnet from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(fruitnet.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: fruitnet was imported from {fruitnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    from workloads import BATCH, NUM_CLASSES, PRESET, WORKLOADS, Context

    net = fruitnet.preset_configuration(PRESET, NUM_CLASSES + 1)
    machine = machine_info(np, threads)
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer, fruitnet, net.conv_maps, net.input_channels, net.kernel_size)
    else:
        tracer = tracing.NullTracer()

    work = RUN_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](Context(fruitnet, args.seed, args.seconds, work, threads, tracer))
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    wall_s = time.perf_counter() - started

    end_to_end = {
        "setup_s": outcome.setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "images_per_s": outcome.images_per_s,
        "p50_ms": outcome.p50_ms,
    }
    units = dict(END_TO_END)
    correct = outcome.failed == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} wall={wall_s:.1f}s")
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    print("end to end" + (" (traced: includes tracing overhead)" if args.trace else "") + ":")
    for name, unit in END_TO_END:
        print(f"  {name:<28} {end_to_end[name]:>14.4f} {unit}")
    for name, (value, unit, note) in outcome.named.items():
        print(f"  {name:<28} {value:>14.4f} {unit:<9} {note}")
    for note in outcome.notes:
        print(f"  {note}")
    print("checks:")
    for check, (attempted, failed) in outcome.checks.items():
        print(f"  {'ok  ' if not failed else 'FAIL'} {check}: {attempted - failed}/{attempted}")

    RUN_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()},
        "named": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in outcome.named.items()},
        "checks": outcome.checks,
        "notes": outcome.notes,
    }
    if args.trace:
        layers = tracing.per_layer_metrics(tracer)
        record["per_layer"] = {k: {"value": layers[k], "unit": u} for k, u in tracing.PER_LAYER}
        print("per layer (median per call):")
        for name, unit in tracing.PER_LAYER:
            print(f"  {name:<40} {layers[name]:>14.4f} {unit}")
        if layers["layers.conv1.fwd_ms"]:
            record["conv_computed"] = conv_table(net, BATCH)
            print(f"conv layers at preset {PRESET}, batch {BATCH} (FLOPs and im2col computed from shapes; GFLOP/s traced):")
            for row in record["conv_computed"]:
                c = row["layer"]
                print(
                    f"  {c}: computed fwd {row['fwd_gflop']:.3f} GFLOP, bwd {row['bwd_gflop']:.3f} GFLOP,"
                    f" im2col {row['im2col_mb']:.1f} MB; achieved fwd {layers[f'layers.{c}.fwd_gflop_per_s']:.2f}"
                    f" GFLOP/s, bwd {layers[f'layers.{c}.bwd_gflop_per_s']:.2f} GFLOP/s (0: not run)"
                )
        untraced = Path(f"{stem}-trace0.json")
        base = json.loads(untraced.read_text()) if untraced.exists() else None
        if base and base["seconds"] == args.seconds:
            base = base["end_to_end"]
            record["tracing_overhead"] = {k: end_to_end[k] - base[k]["value"] for k in end_to_end}
            print("tracing overhead (traced minus the last untraced run of this workload, seed and length):")
            for name, unit in END_TO_END:
                print(f"  {name:<28} {record['tracing_overhead'][name]:>+14.4f} {unit}")
        tracer.write(f"{stem}-trace1.spans.json")
        metrics = record["per_layer"]
    else:
        metrics = record["end_to_end"]
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

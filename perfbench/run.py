"""Outside-in benchmark of the artifact pipeline.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from `src/` of the
same checkout. A run sets up its workload several times, then repeats the
workload's operation for `--seconds` seconds, checking every output.
Between operations it times the fixed kernels of `hostspeed.py`, and it
scales every timing to one reference host speed. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. A full report, with
the machine record and the unscaled timings, goes to
`perfbench/.work/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"   # one client, no extra threads; also at or below nproc

# Layer of each traced span; the root span's self time is the uncovered rest.
LAYER_OF_ROOT = "uncovered"
LAYERS = ("engine", "counting", "data", "knn", "experiments", "metrics",
          "trajectories", "fdcheck", "cli")

# Per-layer values derived rather than measured at a span boundary.
LABELS = {
    "knn.distance_pairs": "counted: queries x train rows per distance block",
    "knn.distance_bytes_computed": "computed: 8 x (queries x d + train x d + queries x train)",
    "knn.pairs_per_neighbor": "computed: distance_pairs / (queries x k ranked)",
    "knn.queries": "counted: rows passed to predict_batch and predict_proba_batch",
    "knn.model_json_bytes": "counted: model JSON text written and read",
    "data.write_csv.bytes": "counted: size of each CSV written",
    "data.read_csv.rows": "counted: rows returned by read_csv",
    "data.generate.accept_ratio": "computed: n / (n + redraws) from the dataset sidecar",
    "trajectories.simulate.lanes": "counted: trajectories simulated",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(np, args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM, not getrusage: Linux carries ru_maxrss over from the process
    that forked this one, so it would depend on how the benchmark was started.
    """
    try:
        with open("/proc/self/status") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def end_to_end(np, w, scale) -> dict:
    """Medians over the run, each timing multiplied by its `scale` factor."""
    calls = np.array([v * scale["op"][i] for i, v in w.timings["call"]])
    rates = [v / scale["op"][i] for i, v in w.timings["rate"]]
    return {
        "setup_s": statistics.median((b - a) * f for (a, b), f in zip(w.setup_spans, scale["setup"])),
        "call_p50_ms": float(np.median(calls)) * 1e3,
        # reported, not bounded: see README
        "call_p90_ms": float(np.percentile(calls, 90)) * 1e3,
        "calls": len(calls),
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": w.peak_rss_mb,
    }


def per_layer(spans, w, scale, tracer) -> dict:
    """Per traced operation: calls, inclusive and self seconds, counts, shares."""
    summary = tracer.summary()
    n = sum(w.op_traced)
    # Spans and counts the workload never reached read 0.
    values = dict.fromkeys(LABELS, 0.0)
    for mod, fn, _ in spans.TARGETS:
        values.update(dict.fromkeys((f"{mod}.{fn}.calls", f"{mod}.{fn}.s", f"{mod}.{fn}.self_s"), 0.0))
    for name, st in summary.items():
        values[f"{name}.calls"] = st["calls"] / n
        values[f"{name}.s"] = st["s"] / n
        values[f"{name}.self_s"] = st["self_s"] / n
    values.update({k: v / n for k, v in tracer.counts.items()})
    values.update(w.extra)
    values["cli.self_s"] = values.get("cli.main.self_s", 0.0)
    slots = tracer.counts.get("knn.ranked_slots", 0.0)
    values["knn.pairs_per_neighbor"] = tracer.counts.get("knn.distance_pairs", 0.0) / slots if slots else 0.0

    wall = summary[spans.ROOT]["s"]
    shares = dict.fromkeys(LAYERS + (LAYER_OF_ROOT,), 0.0)
    for name, st in summary.items():
        layer = LAYER_OF_ROOT if name == spans.ROOT else name.split(".", 1)[0]
        shares[layer] += st["self_s"] / wall
    values.update({f"{layer}.share": v for layer, v in shares.items()})

    op_s = {False: [], True: []}
    for (a, b), traced, f in zip(w.op_spans, w.op_traced, scale["op"]):
        op_s[traced].append((b - a) * f)
    traced = statistics.median(op_s[True])
    untraced = statistics.median(op_s[False])
    values["trace.traced_op_s"] = traced
    values["trace.untraced_op_s"] = untraced
    values["trace.overhead_share"] = traced / untraced - 1.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.dont_write_bytecode = True
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import artifact
    if Path(artifact.__file__).resolve().parent != SRC / "artifact":
        print(f"error: imported artifact from {artifact.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    w = workloads.WORKLOADS[args.workload](args.seed, work, tracer)
    hs = hostspeed.HostSpeed()
    before = {"setup": [], "op": []}   # calibration block just before each set-up and operation
    for k in range(w.setups):
        hs.calibrate()
        before["setup"].append(len(hs.blocks) - 1)
        w.run_setup(k)
    hs.calibrate()
    t0 = perf_counter()
    i = 0
    while i < w.min_ops or perf_counter() - t0 < args.seconds:
        before["op"].append(len(hs.blocks) - 1)
        # Traced runs alternate: even operations untraced, odd ones traced,
        # so the difference is the tracing overhead.
        w.op(i, traced=tracer is not None and i % 2 == 1)
        if i == 0:
            # Peak memory of set-up and one operation: later operations only
            # repeat it, and allocator fragmentation over a long run would
            # otherwise tie this figure to how many operations fit.
            w.peak_rss_mb = peak_rss_mb()
        i += 1
        if hs.due():
            hs.calibrate()
    hs.calibrate()
    measured_s = perf_counter() - t0

    scale = {kind: [hs.factor(b, w.interpreter_share) for b in blocks]
             for kind, blocks in before.items()}
    values = per_layer(spans, w, scale, tracer) if tracer else end_to_end(np, w, scale)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: benchmark computes no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    machine = machine_record(np, args)
    speed = hs.speed(hs.blocks)
    report = {
        "machine": machine,
        "seconds": args.seconds, "measured_s": measured_s, "ops": i, "host_speed": speed,
        "setup_spans": w.setup_spans, "op_spans": w.op_spans, "op_traced": w.op_traced,
        "timings": w.timings, "interpreter_share": w.interpreter_share,
        "calibration_blocks": hs.blocks, "scale": scale,
        "attempted": w.attempted, "failed": w.failed, "failures": w.failures,
        "metrics": metrics,
    }
    if tracer:
        report["labels"] = LABELS
        report["absent_spans"] = tracer.absent
        report["uncounted_spans"] = sorted(tracer.uncounted)
        tracer.write(work / f"spans-seed{args.seed}.json")
    else:
        report["named"] = w.named(values)
        report["unscaled"] = end_to_end(np, w, {k: [1.0] * len(v) for k, v in scale.items()})
    (work / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")

    for line in w.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    print(f"{args.workload}: {i} operations in {measured_s:.1f} s, {w.failed} of "
          f"{w.attempted} failed (error_rate {w.failed / w.attempted:g}), "
          f"host speed against the reference: {json.dumps(speed)}")
    if not tracer:
        print("named: " + json.dumps(report["named"]))
        print("unscaled: " + json.dumps(report["unscaled"]))
    print(json.dumps({"correct": w.failed == 0, "attempted": w.attempted,
                      "failed": w.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

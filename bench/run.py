"""nonlocal-lab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload reproduce --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src, nothing
needs installing. With --trace 0 the workload is timed with nothing
patched and the end-to-end metrics of BENCHMARK.json are printed. With
--trace 1 untraced and traced units (span tracer, spans.py) alternate in
pairs with the same inputs, and the per-layer metrics of the last traced
unit are printed, with the tracing overhead over all pairs. The last
stdout line is always {"correct", "attempted", "failed", "metrics"}; a
machine record and any failed checks are printed before it. Everything written goes to
.bench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
clock = time.perf_counter

SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from nonlocal_lab import cli; cli.build_parser()"
SPEEDUP_N = 1_000_000
MIN_PAIRS = 2


def _import_package():
    """Import nonlocal_lab from this checkout's src/, never from site-packages."""
    if not (SRC / "nonlocal_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'nonlocal_lab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nonlocal_lab

    if Path(nonlocal_lab.__file__).resolve().parent != SRC / "nonlocal_lab":
        raise SystemExit(f"bench: imported nonlocal_lab from {nonlocal_lab.__file__}, not {SRC}")
    return nonlocal_lab


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NONLOCAL_LAB_THREADS")},
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def setup_times(reps: int) -> list[float]:
    """Fresh interpreter to nonlocal_lab.cli imported and its parser built.

    No timeout: with one, the wait polls with sleeps of up to 50 ms, which
    quantizes the measured time.
    """
    times = []
    for _ in range(reps):
        t0 = clock()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        times.append(clock() - t0)
    return times


def end_to_end(units: list[list[float]], setups: list[float]) -> dict[str, float]:
    """Unit statistics are averaged over the units of the run, not taken over
    all its calls: a shared host switches between a fast and a slower mode
    every few seconds, and the median of a run's calls then jumps between
    the modes with the share of slow time, while the mean of per-unit
    figures moves in proportion to it."""
    units = [u for u in units if u]
    lat = [t for u in units for t in u]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(sum(u) for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "call_p50_ms": statistics.fmean(float(np.percentile(u, 50)) for u in units) * 1e3,
        "call_p99_ms": statistics.fmean(float(np.percentile(u, 99)) for u in units) * 1e3,
        "calls_per_s": len(lat) / sum(lat),
    }


MODELS = {
    "werner": "simulate_werner",
    "barrett": "simulate_barrett",
    "gd": "simulate_gd_w2x2",
    "epr1bit": "simulate_epr_one_bit",
    "hirsch": "simulate_hirsch_projective",
    "povm_lift": "simulate_povm_lift",
    "simplex": "simplex_integral_mc",
}
SAMPLERS = {"lhv.sample_sphere_r3", "lhv.sample_sphere_cd"}
MEASURE_CONSTRUCT = {
    "measure.bloch_vector",
    "measure.obs_from_bloch",
    "measure.random_projective",
    "measure.random_povm",
    "measure.Observable.__post_init__",
    "measure.Observable.measurement",
    "measure.Povm.__post_init__",
    "measure.Povm.from_json",
    "measure.ProjectiveMeasurement.__post_init__",
    "measure.ProjectiveMeasurement.from_basis",
    "measure.ProjectiveMeasurement.from_json",
}
BORN_TABLE_DS = (2, 8, 16, 24)


def per_layer(a, wall_traced: float, pairs: list[tuple[float, float]], calls: int, speedup: float, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics from one traced unit; layer self times plus
    trace.unattributed_s add up to trace.wall_s. pairs holds the (untraced,
    traced) wall time of every pair of units with the same inputs."""
    inc = a.inclusive
    layers = a.self_by_layer()
    m = {
        "trace.wall_s": wall_traced,
        "trace.untraced_wall_s": statistics.median(u for u, _ in pairs),
        "trace.overhead_s": statistics.median(t - u for u, t in pairs),
        "trace.unattributed_s": wall_traced - sum(layers.values()),
        "trace.spans": len(a),
    }
    m.update({f"{layer}.self_s": layers[layer] for layer in spans.LAYERS})

    samples = a.count_sum({spans.KERNEL})
    kernel = inc({spans.KERNEL})
    rng = inc({"mc.batch_rng"})
    run_batched = inc({"mc.run_batched"})
    m["lhv.samples"] = samples
    m["lhv.sample_s"] = inc(SAMPLERS)
    m["lhv.response_s"] = kernel - a.inside(SAMPLERS, {spans.KERNEL})
    m.update({f"lhv.{model}_s": inc({f"lhv.{fn}"}) for model, fn in MODELS.items()})
    m["mc.batches"] = a.calls({spans.KERNEL})
    m["mc.run_batched_s"] = run_batched
    m["mc.kernel_s"] = kernel
    m["mc.batch_rng_s"] = rng
    m["mc.reduce_s"] = a.self_time_of({"mc.run_batched"})
    m["mc.samples_per_s"] = samples / run_batched if run_batched else 0.0
    m["mc.speedup_w2"] = speedup

    table = {"measure.born_table"}
    m["measure.born_table.calls"] = a.calls(table)
    m["measure.born_table.cells"] = a.count_sum(table)
    m["measure.born_table_s"] = inc(table)
    m.update({f"measure.born_table_s.d{d}": inc(table, tag=d) for d in BORN_TABLE_DS})
    m["measure.born_joint.calls"] = a.calls({"measure.born_joint"})
    m["measure.born_joint_s"] = inc({"measure.born_joint"})
    m["measure.construct_s"] = inc(MEASURE_CONSTRUCT)
    m["measure.povm_refine_s"] = inc({"measure.povm_refine"})

    density = {"states.DensityMatrix.__post_init__"}
    m["qmat.is_density.calls"] = a.calls({"qmat.is_density"})
    m["qmat.is_density_s"] = inc({"qmat.is_density"})
    m["qmat.tensor.calls"] = a.calls({"qmat.tensor"})
    m["qmat.tensor_s"] = inc({"qmat.tensor"})
    m["qmat.hermitian_eig_s"] = inc({"qmat.hermitian_eig"})
    m["states.density.calls"] = a.calls(density)
    m["states.density_s"] = inc(density)
    m["states.validations_per_call"] = m["qmat.is_density.calls"] / calls

    m["bell.horodecki_m_s"] = inc({"bell.horodecki_m"})
    m["bell.chsh_value_s"] = inc({"bell.chsh_value"})
    m["bell.correlation_matrix_s"] = inc({"bell.correlation_matrix"})
    m["filters.scan_s"] = inc({"filters.hidden_nonlocality_scan"})
    m["filters.apply_filters.calls"] = a.calls({"filters.apply_filters"})
    m["filters.popescu_s"] = inc({"filters.popescu_protocol"})

    m.update({f"acceptance.C{i:02d}_s": inc({f"acceptance.criterion_{i:02d}"}) for i in range(1, 14)})
    m["acceptance.write_report_s"] = inc({"acceptance.write_report"})
    m["acceptance.report_bytes"] = report_bytes
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, params: dict | None = None) -> dict:
    """Run one workload and return the result object (without printing it).

    params overrides the workload's sizes and the setup/speedup repetitions;
    the smoke test uses it to run everything at tiny n.
    """
    package = _import_package()
    import workloads  # imports nonlocal_lab, so only once src/ is on the path

    params = dict(params or {})
    setup_reps = params.pop("setup_reps", 5)
    speedup_n = params.pop("speedup_n", SPEEDUP_N)
    out = ROOT / ".bench_out" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    checks = workloads.Checks()
    make = workloads.WORKLOADS[workload]

    def build(tag: str):
        (out / tag).mkdir()
        return make(seed, out / tag, checks, **params)

    if not trace:
        # Set-up is sampled at both ends of the run and after every unit:
        # shared machines drift between fast and slow phases, and one burst
        # of spawns sees only one. The first spawn compiles bytecode and is
        # not counted.
        setup_times(1)
        setups = setup_times(setup_reps)
        wl = build("run")
        wl.warm_up()
        units: list[list[float]] = []
        t0 = clock()
        while not units or clock() - t0 < seconds:
            units.append(wl.unit())
            setups += setup_times(1)
        metrics = end_to_end(units, setups + setup_times(setup_reps))
    else:
        # Untraced and traced units alternate with the same inputs (U T, then
        # T U, ...), so host drift and any order effect fall on both sides of
        # the paired difference.
        plain, twin = build("untraced"), build("traced")
        plain.warm_up()
        pairs: list[tuple[float, float]] = []
        t0 = clock()
        while len(pairs) < MIN_PAIRS or clock() - t0 < seconds:
            tracer = spans.Tracer(package)
            if len(pairs) % 2:
                with tracer:
                    traced = twin.unit()
                untraced = plain.unit()
            else:
                untraced = plain.unit()
                with tracer:
                    traced = twin.unit()
            pairs.append((sum(untraced), sum(traced)))
        if workload == "reproduce":
            checks.check(twin.reports == plain.reports, "tracing changed the report.json bytes")
        # C03 at 1 and 2 workers; only reproduce, the workload that runs C03.
        speedup = workloads.speedup_w2(seed, speedup_n, checks) if workload == "reproduce" else 0.0
        metrics = per_layer(tracer.analysis(), sum(traced), pairs, len(traced), speedup, twin.report_bytes)

    kind = "per_layer" if trace else "end_to_end"
    units_of = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(metrics) != set(units_of):
        raise RuntimeError(f"metrics disagree with BENCHMARK.json {kind}: {sorted(set(metrics) ^ set(units_of))}")
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": units_of[k]} for k, v in metrics.items()},
        "failures": checks.notes,
    }


def main(argv: list[str] | None = None, params: dict | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), params)
    failures = result.pop("failures")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_record(), **result, "failures": failures}
    (ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("machine " + json.dumps(record["machine"]))
    for note in failures:
        print("FAILED " + note.replace("\n", " | "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fixed-seed pipeline benchmark for ``mbce``.

    python3 bench/run.py --workload link_coarse --seed 0 --seconds 25 --trace 0

Runs one workload (``rss_map``, ``link_coarse``, ``link_omp`` or
``refine_step``) as a closed loop with one client in this one process, checks
its outputs and prints, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the run is
traced and the metrics are the per-layer ones. The lines before it give the
environment and the same figures under per-workload names. Exits 1 when a
correctness check fails, and without a result when the library is missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
GOLDEN_REL_TOL = {"first_loss": 1e-5}  # float32 training; float64 results use 1e-9

END_TO_END_ALIASES = {
    # per-workload labels printed beside work_per_s etc. in the report lines
    "rss_map": {"work_per_s": "map_cells_per_s", "op_ms_p50": "map_ms_p50",
                "op_ms_p90": "map_ms_p90", "nmse_db": "map_ref_nmse_db"},
    "link_coarse": {"work_per_s": "links_per_s", "op_ms_p50": "link_ms_p50",
                    "op_ms_p90": "link_ms_p90", "nmse_db": "ls_nmse_db"},
    "link_omp": {"work_per_s": "omp_links_per_s", "op_ms_p50": "omp_link_ms_p50",
                 "op_ms_p90": "omp_link_ms_p90", "nmse_db": "omp_nmse_db"},
    "refine_step": {"work_per_s": "train_steps_per_s", "op_ms_p50": "step_ms_p50",
                    "op_ms_p90": "step_ms_p90", "nmse_db": "refine_nmse_db"},
}

TIMED_FUNCTIONS = [
    "propagation.generate_rss_map", "propagation.rss_patch_at",
    "propagation.save_rss_map", "propagation.load_rss_map", "propagation.trace_paths",
    "channel_model.synth_channel",
    "estimation.transmit_pilots", "estimation.ls_estimate",
    "estimation.interpolate_full_band", "estimation.to_time_domain",
    "estimation.OmpDictionary.build", "estimation.omp_estimate",
    "autodiff.conv2d", "autodiff.conv_transpose2d", "autodiff.max_pool2d",
    "autodiff.matmul", "autodiff.softmax", "autodiff.layer_norm", "autodiff.Tape.backward",
]
# metric names that are not ``<span name>.ms``
METRIC_OF_SPAN = {"autodiff.save_params": "autodiff.checkpoint.save_ms",
                  "autodiff.load_params": "autodiff.checkpoint.load_ms"}
LAYERS = ["propagation", "channel_model", "estimation", "autodiff", "bench"]


def load_library() -> None:
    """Import the library from this checkout's ``src``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "mbce", "__init__.py")):
        sys.exit(f"no library sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import mbce
    import workloads  # noqa: F401  (imports every mbce module the benchmark uses)

    if os.path.dirname(os.path.abspath(mbce.__file__)) != os.path.join(SRC, "mbce"):
        sys.exit(f"mbce was imported from {mbce.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median over fresh interpreters of the time to import the library.

    numpy is imported first, off the clock: its import time is not the
    library's and only adds noise.
    """
    code = ("import sys, time, numpy\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "t = time.perf_counter()\n"
            "import workloads\n"
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, SRC, BENCH_DIR], capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "git_commit": (_command(["git", "-C", ROOT, "rev-parse", "HEAD"])
                       if os.path.isdir(os.path.join(ROOT, ".git")) else None),
        "seed": seed,
        "load": "one process, one client, closed loop",
    }


def _command(argv):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _caches():
    out = _command(["getconf", "-a"]) or ""
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            sizes[parts[0].lower()] = int(parts[1])
    return sizes or None


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API when it is exposed."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(wl, callers, seconds: float):
    """Run ops back to back for ``seconds``.

    Op ``i`` runs once through each caller in turn, so every caller sees the
    same inputs at nearly the same time. Returns (latencies per caller, work,
    elapsed, errors, ops started per caller).
    """
    lats, work, errors = [[] for _ in callers], 0.0, []
    t0 = time.perf_counter()
    end = t0 + seconds
    i = 0
    while (time.perf_counter() < end or not lats[-1]) and len(errors) <= 100:
        for call, lat in zip(callers, lats):
            t = time.perf_counter()
            try:
                with call.op(f"bench.{wl.name}", f"{wl.name}:{i}"):
                    work += wl.op(i, call)
            except Exception as exc:  # a failed op is counted, the loop keeps going
                errors.append(f"{wl.name}: op {i} raised {exc!r}")
            else:
                lat.append(time.perf_counter() - t)
        i += 1
    return lats, work, time.perf_counter() - t0, errors, i


def settle(wl, done, call):
    """Untimed: finish what the quality figure needs, then the once-per-run extras."""
    try:
        wl.complete(done, call)
        wl.finish(call)
    except Exception as exc:
        return [f"{wl.name}: after the timed loop, raised {exc!r}"]
    return []


def percentile_ms(lat, q):
    if len(lat) < 2:
        return 1e3 * lat[0]
    return 1e3 * statistics.quantiles(lat, n=100, method="inclusive")[q - 1]


def check_golden(wl, seed, sizes):
    """Compare a default-seed, default-size run with ``golden.json``."""
    import workloads

    if seed != DEFAULT_SEED or sizes != workloads.DEFAULT:
        return []
    with open(GOLDEN) as fh:
        want = json.load(fh)[wl.name]
    return [f"{wl.name}: {key} differs from the golden reference"
            for key in golden_mismatches(want, wl.golden())]


def golden_mismatches(want: dict, got: dict) -> list[str]:
    """Keys whose values differ: integers exactly, floats beyond a relative tolerance."""
    bad = []
    for key, ref in want.items():
        tol = GOLDEN_REL_TOL.get(key, 1e-9)
        a, b = _flat(ref), _flat(got.get(key))
        if len(a) != len(b) or any(
            r != g if isinstance(r, int) else abs(g - r) > tol * abs(r) for r, g in zip(a, b)
        ):
            bad.append(key)
    return bad


def _flat(v):
    if isinstance(v, list):
        return [x for item in v for x in _flat(item)]
    return [] if v is None else [v]


def measure(name, seed, seconds, sizes):
    """Untraced run: end-to-end metrics."""
    import workloads
    from tracing import Calls

    os.makedirs(OUT_DIR, exist_ok=True)
    import_s = import_seconds()
    cls = workloads.WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = cls(seed, sizes, Calls(), OUT_DIR)
        setups.append(time.perf_counter() - t)
    calls = Calls()
    (lat,), work, elapsed, errors, done = closed_loop(wl, [calls], seconds)
    errors += settle(wl, done, Calls())
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "work_per_s": (work / elapsed, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "op_ms_p90": (percentile_ms(lat, 90), "ms"),
        "nmse_db": (wl.quality_db(), "dB"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    problems = errors + wl.problems() + check_golden(wl, seed, sizes)
    notes = {"ops": len(lat), "setup_runs_s": setups, "import_s": import_s,
             "op_error_rate": calls.failed / max(calls.attempted, 1)}
    if name == "refine_step":
        notes["train_loss_ratio"] = wl.loss_ratio()
    return metrics, calls, problems, notes


def traced(name, seed, seconds, sizes):
    """Traced run: per-layer metrics, tracing overhead and layer self times.

    Each pool entry runs untraced and then traced, so the tracing overhead is
    the median difference of paired ops. Then one probe op of every other workload runs traced, so each per-layer
    metric has a value; a function the selected workload calls is reported
    from its own spans, any other from the probes.
    """
    import numpy as np

    import model
    import workloads
    from tracing import Calls, Tracer, layer_of, self_times

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer()
    built = {}
    for wname, cls in workloads.WORKLOADS.items():
        with tracer.op(f"bench.{wname}.setup", f"{wname}:setup"):
            built[wname] = cls(seed, sizes, tracer, OUT_DIR)
    wl = built[name]
    sgemm = sgemm_gflops()

    calls = Calls()
    (lat0, lat1), _, _, errors, done = closed_loop(wl, [calls, tracer], seconds)
    with tracer.op(f"bench.{name}.end", f"{name}:end"):
        errors += settle(wl, done, tracer)
    probes = [other for other in built.values() if other is not wl]
    for other in probes:
        with tracer.op(f"bench.{other.name}", f"{other.name}:probe"):
            other.op(0, tracer)
        with tracer.op(f"bench.{other.name}.end", f"{other.name}:end"):
            other.finish(tracer)

    spans = tracer.spans
    selfs = self_times(spans)
    mine = [s.op_id.startswith(name + ":") for s in spans]
    in_setup = [s.op_id.endswith(":setup") for s in spans]

    def per_call_ms(span_name):
        # own ops, then probe ops, then set-up (OmpDictionary.build runs only there)
        for setup, own in ((False, True), (False, False), (True, True), (True, False)):
            xs = [st for s, st, m, su in zip(spans, selfs, mine, in_setup)
                  if s.name == span_name and m == own and su == setup]
            if xs:
                return 1e3 * float(np.mean(xs))
        return float("nan")

    metrics = {}
    for fn in TIMED_FUNCTIONS + list(METRIC_OF_SPAN):
        metrics[METRIC_OF_SPAN.get(fn, fn + ".ms")] = (per_call_ms(fn), "ms")

    counters = {}
    for other in probes + [wl]:
        counters.update(other.counters())
    units = {"calls": "count", "paths_per_call": "count", "iterations": "count",
             "atoms_scanned": "count", "nodes": "count", "bytes": "B", "bytes_held": "B"}
    for key, value in counters.items():
        metrics[key] = (value, units.get(key.rsplit(".", 1)[1], "ratio"))

    omp = metrics["estimation.omp_estimate.ms"][0]
    metrics["estimation.omp_estimate.gatoms_per_s"] = (
        metrics["estimation.omp_estimate.atoms_scanned"][0] / (omp * 1e-3) / 1e9, "Gatom/s")
    refine = built["refine_step"]
    costs = model.conv_costs(refine.params, refine.x.shape)
    for kind, (flops, nbytes, n_calls) in costs.items():
        ms = metrics[f"autodiff.{kind}.ms"][0]
        metrics[f"autodiff.{kind}.gflops"] = (flops / (n_calls * ms * 1e-3) / 1e9, "GFLOP/s")
        metrics[f"autodiff.{kind}.flops_per_byte"] = (flops / nbytes, "FLOP/B")
    metrics["machine.sgemm.gflops"] = (sgemm, "GFLOP/s")

    # self time along the blocking path: the selected workload's timed ops
    roots = {i for i, s in enumerate(spans)
             if s.parent is None and mine[i] and s.op_id.split(":")[1].isdigit()}
    total = sum(spans[i].duration for i in roots)
    by_name: dict[str, float] = {}
    for i, (s, st) in enumerate(zip(spans, selfs)):
        top = i
        while spans[top].parent is not None:
            top = spans[top].parent
        if top in roots:
            by_name[s.name] = by_name.get(s.name, 0.0) + st
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for span_name, st in by_name.items():
        layer_s[layer_of(span_name)] += st
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = (layer_s[layer] / total, "ratio")
    overhead = statistics.median(t - u for u, t in zip(lat0, lat1))
    metrics["tracing.overhead_ms"] = (1e3 * overhead, "ms")
    metrics["tracing.overhead_share"] = (overhead / statistics.median(lat0), "ratio")

    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "spans": tracer.to_json()}, fh)

    problems = errors + wl.problems() + check_golden(wl, seed, sizes)
    notes = {"ops_untraced": len(lat0), "ops_traced": len(lat1),
             "layer_self_ms_per_op": {k: 1e3 * v / len(roots) for k, v in layer_s.items()},
             "self_share_by_span": {k: v / total for k, v in sorted(by_name.items())},
             "probes": [other.name for other in probes],
             "computed_not_measured": [
                 "autodiff.conv2d.flops_per_byte", "autodiff.conv_transpose2d.flops_per_byte",
                 "FLOPs in autodiff.*.gflops", "autodiff.tape.bytes_held"]}
    calls.attempted += tracer.attempted
    calls.failed += tracer.failed
    return metrics, calls, problems, notes


def sgemm_gflops() -> float:
    """Best of five float32 1024^3 products: the ceiling for autodiff GFLOP/s."""
    import numpy as np

    n = 1024
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t)
    return 2.0 * n**3 / best / 1e9


def run(name, seed, seconds, trace, sizes):
    """Run one workload; returns (result dict for the last line, notes)."""
    if trace:
        metrics, calls, problems, notes = traced(name, seed, seconds, sizes)
    else:
        metrics, calls, problems, notes = measure(name, seed, seconds, sizes)
    notes["problems"] = problems
    result = {
        "correct": not problems and calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(END_TO_END_ALIASES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import workloads

    result, notes = run(args.workload, args.seed, args.seconds, args.trace,
                        workloads.DEFAULT)
    print("env " + json.dumps(environment(args.seed)))
    aliases = END_TO_END_ALIASES[args.workload]
    for key, m in result["metrics"].items():
        label = f"  [{aliases[key]}]" if key in aliases else ""
        print(f"metric {key} = {m['value']:.6g} {m['unit']}{label}")
    print("notes " + json.dumps(notes))
    for p in notes["problems"]:
        print("FAILED " + p)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    load_library()
    sys.exit(main())

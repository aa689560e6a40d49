"""fuselab benchmark: three workloads, end-to-end metrics, and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S     # every workload, one process each
    python3 perfbench/run.py --smoke                  # short run of each, names checked

A single-workload run sets up its inputs several times, reporting the median
set-up time, then runs ops in a closed loop with one caller until their
summed wall time reaches --seconds, checking each op's output outside the
timed region. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
alternates untraced ops with ops during which every fuselab module is wrapped,
and reports the difference as ``trace.overhead_pct``. See README.md.
"""

import os

# Pin BLAS before numpy loads: the models' matrices are small, and the
# benchmark measures one single-threaded caller.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("translation_gan_train", "xor_gan_train", "translation_gan_eval")
ROUNDTRIPS = 5


def environment() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')} with {threads} thread(s), "
            f"nproc {len(os.sched_getaffinity(0))}")


def run_ops(wl, seconds: float, span=None) -> tuple[list[float], int, int]:
    """Run ops until their summed wall time reaches `seconds`; check each."""
    times: list[float] = []
    items = failed = 0
    while sum(times) < seconds or not times:
        ok = True
        t0 = time.perf_counter()
        try:
            with span() if span else contextlib.nullcontext():
                n = wl.op()
        except Exception:  # a crashing op is counted, not fatal
            traceback.print_exc()
            ok, n = False, 0
        times.append(time.perf_counter() - t0)
        items += n
        if ok:
            try:
                wl.check()
            except Exception:  # AssertionError from a check, or a crash in it
                traceback.print_exc()
                ok = False
        failed += not ok
    return times, items, failed


def run_checked(fn, label: str) -> bool:
    try:
        fn()
        return True
    except Exception:
        print(f"run-level check failed: {label}", file=sys.stderr)
        traceback.print_exc()
        return False


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import fuselab
    from fuselab import checkpoint as ckpt_io
    from tracer import OP, Tracer
    from workloads import WORKLOADS

    if Path(fuselab.__file__).resolve().parent != SRC / "fuselab":
        raise SystemExit(f"imported fuselab from {fuselab.__file__}, not from {SRC}")
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"# {environment()}")
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](seed, str(workdir))
        setup_times = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        print(f"# inputs: {wl.describe()}")
        run_ok = run_checked(getattr(wl, "check_setup", lambda: None), "set-up")
        if not trace:
            times, items, failed = run_ops(wl, seconds)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "items_per_s": (items / sum(times), "1/s"),
                "op_ms_p50": (1e3 * statistics.median(times), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            notes = [f"op_ms_p50 is the median of {len(times)} ops",
                     f"setup_s is the median of {wl.setup_repeats} set-ups"]
        else:
            # Untraced and traced ops alternate, so that both halves see the
            # same drift in machine speed and their difference is the tracer's.
            tracer = Tracer()
            plain, traced, failed = [], [], 0
            while sum(plain) + sum(traced) < seconds or not traced:
                t, _, f = run_ops(wl, 0)
                plain += t
                tracer.install(fuselab)
                try:
                    if not traced:
                        with tracer.span("bench.checkpoint_roundtrip"):
                            for i in range(ROUNDTRIPS):
                                ckpt = ckpt_io.load_checkpoint(wl.ckpt_path)
                                ckpt_io.save_checkpoint(workdir / f"roundtrip{i}.bin", ckpt)
                    t, _, g = run_ops(wl, 0, lambda: tracer.span(OP))
                finally:
                    tracer.uninstall()
                traced += t
                failed += f + g
            times = plain + traced
            layer = tracer.per_layer(per_step=wl.per_step)
            layer["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced) / statistics.median(plain) - 1.0)
            metrics = {k: (v, _unit(k)) for k, v in layer.items()}
            shares = tracer.shares()
            trace_path = OUT / f"trace-{name}-seed{seed}.json"
            tracer.write(trace_path, {"workload": name, "seed": seed, "per_layer": layer,
                                      "shares": shares})
            notes = [f"{len(plain)} untraced and {len(traced)} traced ops; spans in {trace_path}",
                     "share of traced op time: " + ", ".join(
                         f"{k} {100 * v:.1f}%" for k, v in shares.items() if v >= 0.005)]
        run_ok &= run_checked(wl.gradient_check, "directional derivative")
        notes.append(_quality(wl))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k, (v, unit) in metrics.items():
        print(f"{k:40s} {v:14.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(f"# ops attempted {len(times)}, failed {failed}, near-ties {wl.ties}")
    return {"correct": run_ok and failed == 0, "attempted": len(times), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _unit(metric: str) -> str:
    if metric.endswith("_ms") or "_ms_" in metric:
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    return "ratio" if metric.endswith("_ratio") else "count"


def _quality(wl) -> str:
    vals = list(wl.verified.values())
    keys = [k for k in ("bleu4", "decoded_len", "accuracy", "silhouette") if k in vals[0]]
    return "verified outputs: " + ", ".join(
        f"mean {k} {statistics.mean(v[k] for v in vals):.4g}" for k in keys)


def spawn(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke() -> int:
    """Run each workload briefly, traced and untraced, and check the metric
    names against BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(NAMES):
        problems.append("workload names differ from BENCHMARK.json")
    for name in NAMES:
        for trace in (0, 1):
            res = spawn(name, 0, 1, trace)
            got = set(res["metrics"])
            if got != wanted[trace]:
                problems.append(f"{name} trace {trace}: missing {sorted(wanted[trace] - got)}, "
                                f"extra {sorted(got - wanted[trace])}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace {trace}: correct={res['correct']}, "
                                f"failed={res['failed']}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=NAMES, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0, help="data seed")
    ap.add_argument("--seconds", type=float, default=10.0, help="timed op seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="short checked run of each workload")
    args = ap.parse_args(argv)

    if not (SRC / "fuselab" / "__init__.py").is_file():
        print(f"fuselab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        results = {n: spawn(n, args.seed, args.seconds, args.trace) for n in NAMES}
        print(json.dumps({"workloads": results}))
        return 0
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

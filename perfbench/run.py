"""ridgenet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload denoise_batch --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; ridgenet is imported from its
`src/`. A run builds its inputs from --seed and times whole rounds of the
workload: at least one round (and, for the single-image workload, 100
images), and another only while it is expected to end within --seconds.
It then checks the outputs and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
traces the set-up and the first of two rounds (traced, then untraced) by
wrapping ridgenet's layers (see tracer.py), reports the per-layer metrics
and writes them, with the tracing overhead against the second round, to
perfbench/out/trace-<workload>-seed<n>.json.
--smoke shrinks every size so that a run takes seconds (used by the tests).
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BLAS_THREADS = "1"


def since_process_start() -> float:
    """Seconds since this process started (Linux /proc, 10 ms resolution)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class PeakRSS:
    """Highest resident set size while the block runs, sampled every 5 ms.

    The process-lifetime peak (ru_maxrss) would report set-up instead
    wherever set-up holds more, as calibration on a batch does."""

    def __init__(self):
        import threading
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(0.005):
            self.peak = max(self.peak, rss_bytes())

    def __enter__(self):
        self.peak = rss_bytes()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_bytes())


def main(argv=None) -> int:
    import argparse
    import json
    import shutil
    from contextlib import nullcontext
    from pathlib import Path

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    # BLAS threads must be fixed before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # numpy asks for transparent huge pages on large arrays, and whether the
    # kernel has them depends on the host's memory fragmentation: with the
    # advice on, the same batch forward ran 2.06 or 2.97 images/s in sets of
    # runs minutes apart. Without it every page fault is a 4 KiB one.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import numpy as np
    import ridgenet
    if os.path.dirname(os.path.dirname(os.path.abspath(ridgenet.__file__))) \
            != os.path.join(ROOT, "src"):
        print(f"error: ridgenet imported from {ridgenet.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 2
    from tracer import PER_LAYER, Tracer, wrapper_cost_s
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out_dir = os.path.join(BENCH, "out")
    work = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    wl = WORKLOADS[args.workload](Path(work), args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    try:
        with tracer.installed() if tracer else nullcontext():
            wl.setup()
        setup_s = since_process_start()
        wl.warmup()

        items, latencies, timed = 0, [], 0.0
        if tracer:
            # A traced round, then an untraced one to set its overhead
            # against; the warm-up above has already warmed the process.
            round_s = []
            for traced in (True, False):
                calls = tracer.wrapped_calls()
                t0 = time.perf_counter()
                with tracer.installed() if traced else nullcontext():
                    r = wl.round()
                round_s.append(time.perf_counter() - t0)
                items += r.items
                if traced:
                    round_calls = tracer.wrapped_calls() - calls
        else:
            with PeakRSS() as rss:
                while True:
                    t0 = time.perf_counter()
                    r = wl.round()
                    dt = time.perf_counter() - t0
                    items += r.items
                    latencies += r.latencies
                    timed += dt
                    # stop when the next round would overrun, once enough items ran
                    if items >= wl.size.min_items and timed + dt > args.seconds:
                        break
        fails = wl.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in fails:
        print(f"check failed: {f}", file=sys.stderr)
    if tracer:
        values = tracer.metrics()
        cost_s = wrapper_cost_s()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        side = {
            "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "blas_threads": BLAS_THREADS,
            "round_items": r.items,
            "round_s": dict(zip(("traced", "untraced"), round_s)),
            "overhead_pct": 100.0 * (round_s[0] / round_s[1] - 1.0),
            # the A/B above is within round-to-round noise; this is the
            # wrappers' own cost: calls in the traced round times per-call cost
            "wrapped_calls": round_calls,
            "wrapper_cost_us": 1e6 * cost_s,
            "wrapper_overhead_pct": 100.0 * round_calls * cost_s / round_s[1],
            "metrics": metrics,
        }
        with open(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w") as f:
            json.dump(side, f, indent=1)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items / timed, "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * float(np.percentile(latencies, 50)), "unit": "ms"},
            "latency_p90_ms": {"value": 1e3 * float(np.percentile(latencies, 90)), "unit": "ms"},
            "peak_mem_mb": {"value": rss.peak / 2**20, "unit": "MB"},
        }
    print(json.dumps({"correct": not fails, "attempted": items, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

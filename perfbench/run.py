"""hddiamond benchmark: one closed-loop caller per workload, certified outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one caller: each call starts when the previous one
returns.  ``--trace 0`` runs at least two whole passes over the workload's
corpus (see workloads.py), for about ``--seconds``, and reports the
end-to-end metrics; nothing is installed into the package.  ``--trace 1``
makes each call of one pass twice, untraced and with spans at the layer
boundaries, and reports the per-layer metrics.  Every output is checked
against a certificate (check.py) after the timed region.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the benchmark measures one caller on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("solve-float", "solve-exact", "select", "rate-large")
SETUP_PROBES = 7


def _import_package():
    """Import hddiamond from this checkout's src/, never from elsewhere."""
    if not (SRC / "hddiamond" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'hddiamond'}")
    sys.path.insert(0, str(SRC))
    import hddiamond

    if Path(hddiamond.__file__).resolve().parent != SRC / "hddiamond":
        sys.exit(f"perfbench: imported hddiamond from {hddiamond.__file__}")
    return hddiamond


def setup_probe(workload: str, seed: int) -> None:
    """In a fresh process: time ``import hddiamond`` plus building inputs."""
    t0 = time.perf_counter()
    _import_package()
    import workloads

    workloads.build(workload, seed)
    print(time.perf_counter() - t0)


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _warm_up(items) -> None:
    """One untimed call, so first-call imports stay out of the timing."""
    try:
        items[0].run()
    except Exception:  # the timed pass makes the same call and records it
        pass


def _call(item):
    """(output or exception, latency) of one call."""
    t = time.perf_counter()
    try:
        out = item.run()
    except Exception as exc:  # a failing call is counted, not fatal
        out = exc
    return out, time.perf_counter() - t


def run_passes(items, seconds=None):
    """Closed loop over whole passes of ``items``: one pass when ``seconds``
    is None, else at least two passes and then until stopping is closer to
    ``seconds`` than one more pass would be.  Returns (records, wall), one
    (item, output or exception, latency) record per call."""
    records = []
    start = time.perf_counter()
    passes = 0
    while True:
        records += [(item, *_call(item)) for item in items]
        passes += 1
        elapsed = time.perf_counter() - start
        if seconds is None or passes >= 2 and elapsed + elapsed / passes / 2 >= seconds:
            return records, elapsed


def traced_pass(items, tracer):
    """Each call twice in a row, untraced and traced, the order alternating
    from call to call so that neither side gains from the repeat.  Returns
    the traced records and the untraced and traced seconds."""
    records = []
    plain = traced = 0.0
    for i, item in enumerate(items):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                plain += _call(item)[1]
                continue
            tracer.item = str(i)
            tracer.install()
            try:
                out, dt = _call(item)
            finally:
                tracer.restore()
            traced += dt
            records.append((item, out, dt))
    return records, plain, traced


def certify(records) -> list[str | None]:
    """Why each call failed (None when its output is certified).  An item
    that repeats is checked once; each repeat must return an equal output."""
    seen: dict = {}
    verdicts = []
    for item, out, _ in records:
        if isinstance(out, Exception):
            verdicts.append(f"raised {type(out).__name__}: {out}")
        elif id(item) in seen:
            first, verdict = seen[id(item)]
            verdicts.append(verdict if out == first else "repeat gave a different output")
        else:
            seen[id(item)] = (out, item.check(out))
            verdicts.append(seen[id(item)][1])
    return verdicts


def _report(verdicts, metrics: dict) -> None:
    failed = sum(v is not None for v in verdicts)
    for v in dict.fromkeys(v for v in verdicts if v is not None):
        print(f"perfbench: check failed: {v}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }))


def end_to_end(workload: str, seed: int, seconds: float) -> None:
    import numpy as np
    import workloads

    items = workloads.build(workload, seed)
    setup_s = measure_setup(workload, seed)
    _warm_up(items)
    records, wall = run_passes(items, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from scipy.stats.mstats import hdquantiles  # after the peak: not the workload's memory

    verdicts = certify(records)
    latency_ms = np.array([dt for _, _, dt in records]) * 1e3
    # Harrell-Davis: a weighted mean of all order statistics, steadier than
    # the one or two that a plain percentile reads.
    p50, p90 = hdquantiles(latency_ms, prob=[0.5, 0.9])
    passed = sum(v is None for v in verdicts)
    print(f"perfbench: {workload} seed {seed}: {len(records)} calls in "
          f"{wall:.2f} s", file=sys.stderr)
    _report(verdicts, {
        "solves_per_s": {"value": passed / wall, "unit": "1/s"},
        "item_p50_ms": {"value": float(p50), "unit": "ms"},
        "item_p90_ms": {"value": float(p90), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    })


def traced(workload: str, seed: int) -> None:
    import spans
    import workloads

    items = workloads.build(workload, seed)
    _warm_up(items)
    tracer = spans.Tracer()
    records, plain_s, traced_s = traced_pass(items, tracer)
    verdicts = certify(records)
    layers = tracer.layer_metrics()
    layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    known = workloads.probe(seed) if workload == "solve-float" else []
    known_verdicts = certify(run_passes(known)[0]) if known else []
    layers["probe.failed"] = (sum(v is not None for v in known_verdicts), "count")
    for v in known_verdicts:
        if v is not None:
            print(f"perfbench: probe: {v}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    _report(verdicts, {k: {"value": v, "unit": u} for k, (v, u) in layers.items()})


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    _import_package()
    if args.trace:
        traced(args.workload, args.seed)
    else:
        end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()

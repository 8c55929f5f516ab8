"""Closed-loop benchmark of polymorph.

One client in one process runs items back to back: the next item starts
only after the previous one returns, and no threads are started.  Run from
the repository root:

    python3 bench/run.py --workload monotone --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics.  --trace 1 runs every item twice,
untraced and with every public layer function wrapped, and prints the
per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object.  The exit code is 1 when an output fails its check and 2 when
the library cannot be imported from src/.  See bench/NOTES.md for the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()  # set-up time counts the library import

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 3         # this process plus two fresh ones
MIN_ITEMS = 120           # so that at least 10 item runs lie beyond p90
WORKLOAD_NAMES = ("monotone", "general", "oracle", "cli")


def load_library() -> None:
    sys.path.insert(0, str(SRC))
    import polymorph
    if not Path(polymorph.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"polymorph resolved outside {SRC}")


class Failure:
    """An item that raised; kept in place of its result."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception(exc)).strip()


def run_item(wl, item):
    """One item, timed; an item that raises yields a Failure."""
    start = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception as exc:  # the loop must go on and report it
        out = Failure(exc)
    return out, time.perf_counter() - start


def closed_loop(wl, seconds):
    """Run the pool in order, pass after pass, until `seconds` pass and at
    least one whole pass and MIN_ITEMS items are done.  The last pass may
    stop part-way; the figures weigh every entry the same however often it
    ran.  Returns (results in run order, each entry's latencies in s)."""
    size = len(wl.pool)
    results, runs = [], [[] for _ in wl.pool]
    start = time.perf_counter()
    while (len(results) < max(size, MIN_ITEMS)
           or time.perf_counter() - start < seconds):
        k = len(results) % size
        out, lat = run_item(wl, wl.pool[k])
        results.append(out)
        runs[k].append(lat)
    return results, runs


def entry_quantile(runs, q):
    """The q-quantile of all item runs, each run weighing 1/(its entry's
    run count), so that every pool entry weighs the same."""
    points = sorted((v, 1 / len(r)) for r in runs for v in r)
    need, acc = q * len(runs), 0.0
    for v, w in points:
        acc += w
        if acc >= need - 1e-9:
            return v
    return points[-1][0]


def paired_loop(wl, seconds, tracer):
    """Run each item untraced and traced back to back, alternating which
    goes first, so that drift in the machine's speed hits both alike.
    Whole passes over the pool, as many as fit in `seconds` by the length
    of the last pass, and at least one, so that every entry counts equally
    in the per-item layer figures.
    Returns (untraced results, traced results, untraced s, traced s)."""
    plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
    start = time.perf_counter()
    pass_s = 0.0
    while not plain or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        for item in wl.pool:
            i = len(plain)
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer.installed(), tracer.item(i):
                        out, lat = run_item(wl, item)
                    traced.append(out)
                    traced_s += lat
                else:
                    out, lat = run_item(wl, item)
                    plain.append(out)
                    plain_s += lat
        pass_s = time.perf_counter() - pass_start
    return plain, traced, plain_s, traced_s


def canonical(obj):
    """Floats to 12 significant digits, so that the digest compares
    results rather than summation order."""
    if isinstance(obj, float):
        return format(obj, ".12g")
    if isinstance(obj, (tuple, list)):
        return tuple(canonical(v) for v in obj)
    return obj


def audit(wl, *passes):
    """Check outputs outside the timed region.

    Each argument is a list of results in run order, result i being of
    pool entry i mod the pool size.  Every pool entry is checked once;
    every later run of the same entry must repeat its record exactly.
    Returns (failed flags per result of all lists, error lines, digest of
    the pool's records)."""
    size = len(wl.pool)
    runs = [(i % size, res) for results in passes
            for i, res in enumerate(results)]
    first = {}
    for k, res in runs:
        first.setdefault(k, res)
    errors, records, bad = [], {}, set()
    for k in range(size):
        item, res = wl.pool[k], first[k]
        if isinstance(res, Failure):
            errors.append(f"entry {k} ({item.shape}) raised:\n{res.text}")
            bad.add(k)
            continue
        try:
            problems = wl.verify(item, res)
        except Exception as exc:  # a check that raises is a failed check
            problems = [Failure(exc).text]
        if problems:
            errors.append(f"entry {k} ({item.shape}): " + "; ".join(problems))
            bad.add(k)
        records[k] = wl.record(item, res)
    failed = []
    for k, res in runs:
        if k in bad:
            failed.append(True)
        elif isinstance(res, Failure):
            errors.append(f"a rerun of entry {k} raised:\n{res.text}")
            failed.append(True)
        elif wl.record(wl.pool[k], res) != records[k]:
            errors.append(f"a rerun of entry {k} did not repeat its result")
            failed.append(True)
        else:
            failed.append(False)
    digest = hashlib.sha256(repr(
        [canonical(records.get(k)) for k in range(size)]).encode()).hexdigest()
    return failed, errors, digest


def child_setups(args, count):
    """Set-up times of fresh processes running the same set-up."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def shape_lines(wl, cold, medians):
    by_shape = {}
    for item, lat in zip(wl.pool, medians):
        by_shape.setdefault(item.shape, []).append(lat)
    for shape, ms in cold.items():
        warm = by_shape.get(shape, [])
        med = statistics.median(warm) * 1e3 if warm else float("nan")
        yield (f"  shape {shape:<14} cold {ms:8.1f} ms   warm p50 "
               f"{med:8.1f} ms (n={len(warm)} entries)")


def end_to_end(args, wl, cold, setup_s):
    results, runs = closed_loop(wl, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, errors, digest = audit(wl, results)
    setups = [setup_s] + child_setups(args, SETUP_SAMPLES - 1)
    n = len(results)
    # Per entry, so that the part-done last pass weighs nothing twice; a
    # median per entry drops slow spells of the host shorter than half the
    # run.
    medians = [statistics.median(r) for r in runs]
    items_per_s = len(runs) / sum(medians)
    p50 = entry_quantile(runs, 0.5) * 1e3
    p90 = entry_quantile(runs, 0.9) * 1e3
    beyond = sum(v * 1e3 > p90 for r in runs for v in r)
    counts = sorted(len(r) for r in runs)
    accepted = [wl.accepted(r) for r in results if not isinstance(r, Failure)]
    corrections = [a for a in accepted if a is not None]
    print(f"workload {args.workload}  seed {args.seed}  closed loop, "
          f"1 client, {n} items, pool of {len(runs)} inputs run "
          f"{counts[0]}-{counts[-1]} times each, every entry weighing the same")
    print(f"  items_per_s   {items_per_s:12.4f} 1/s  ({len(runs)} entries / "
          f"{sum(medians):.3f} s of per-entry median latency)")
    print(f"  item_ms_p50   {p50:12.4f} ms   (n={n})")
    print(f"  item_ms_p90   {p90:12.4f} ms   (n={n}, {beyond} beyond)")
    if corrections:
        print(f"  accept_rate   {sum(corrections) / len(corrections):12.4f} "
              f"fraction (n={len(corrections)} corrections)")
    else:
        print("  accept_rate            n/a (no correction items)")
    print(f"  fail_rate     {sum(failed) / n:12.4f} fraction "
          f"({sum(failed)} of {n} attempted)")
    print(f"  setup_s       {statistics.median(setups):12.4f} s    (median of "
          f"{len(setups)}: {', '.join(f'{s:.3f}' for s in setups)})")
    print(f"  peak_rss_mb   {rss_mb:12.4f} MB   (n=1 process)")
    for line in shape_lines(wl, cold, medians):
        print(line)
    print(f"  digest {digest}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    metrics = {"items_per_s": (items_per_s, "1/s"),
               "item_ms_p50": (p50, "ms"),
               "item_ms_p90": (p90, "ms"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    return not errors, n, sum(failed), metrics


def per_layer(args, wl):
    import tracing
    tracer = tracing.Tracer()
    first, second, plain_s, traced_s = paired_loop(wl, args.seconds, tracer)
    n = len(first)
    failed, errors, digest = audit(wl, first, second)
    layer = tracing.layer_metrics(tracer.spans, n)
    layer["trace.overhead_ms"] = (traced_s - plain_s) / n * 1e3
    layer["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    misses = tracing.prediction_misses(args.workload, layer)
    layer["trace.prediction_misses"] = len(misses)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(layer):
        raise RuntimeError("BENCHMARK.json per_layer does not match the "
                           f"traced metrics: {sorted(set(units) ^ set(layer))}")
    traces = RUN_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    span_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    print(f"workload {args.workload}  seed {args.seed}  {n} items run "
          f"untraced and traced, {len(tracer.spans)} spans -> {span_file}")
    print(f"  tracing overhead {traced_s - plain_s:.3f} s over {plain_s:.3f} s "
          f"untraced ({layer['trace.overhead_frac']:.2%})")
    for name, unit in units.items():
        print(f"  {name:<34} {layer[name]:14.4f} {unit}")
    checked = sum(args.workload in f | z
                  for f, z in tracing.PREDICTIONS.values())
    print(f"  self-check: {checked - len(misses)} of {checked} predictions "
          "hold")
    for m in misses:
        print(f"  prediction missed: {m}")
    for name in tracer.missing:
        print(f"  not traced (missing): {name}")
    print(f"  digest {digest}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    return not errors, 2 * n, sum(failed), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print(f"error: cannot import polymorph from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import workloads
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        cold = wl.warm_up()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            correct, attempted, failed, metrics = per_layer(args, wl)
        else:
            correct, attempted, failed, metrics = end_to_end(
                args, wl, cold, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh interpreter; ``run.py`` starts it.

The package's ``lru_cache``s are process-global, so each pass gets its own
process and starts cold, as a command-line user does.  The pass imports the
package from ``src/`` of the checkout, generates the workload's inputs and
runs every item once inside the timed region, checking each output outside
it, and then reports the caches.  The last line of standard output is
``RESULT <json>``.

On a shared 2-vCPU VM the speed of the same code swings by half or more
for seconds at a time.  So that this swing does not read as a change of the
program, every timed item is followed by runs of ``reference()``, a fixed
task that does not touch the package, for about a tenth of the item's time.
Each item's wall time is reported, and beside it the time scaled to a host
on which the reference takes ``REF_S``: the wall time times ``REF_S`` over
the mean reference time just before and just after the item.  Set-up time
is scaled by the reference runs that follow it.

Usage (normally by run.py): python3 bench/worker.py --workload NAME --seed N
--size full|tiny --mode plain|traced|setup --round R --spawn-t T [--check]
[--tag K]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

REF_S = 0.0007  # reference() on a 2-vCPU VM (Python 3.11) in its quiet spells
REF_SHARE = 0.1  # reference time run after an item, as a share of the item's time
REF_MAX = 200  # reference runs after one item at most
SETUP_REFS = 40  # reference runs that scale the set-up time


def reference() -> int:
    """A fixed interpreter-bound task: tuple keys, dict and list churn."""
    counts = {}
    for i in range(1200):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return sum(k[0] * v for k, v in ordered[:50])


def reference_s(runs: int) -> float:
    """Mean time of ``runs`` runs of the reference, the collector paused."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(runs):
            reference()
        return (time.perf_counter() - t0) / runs
    finally:
        gc.enable()


def import_package():
    sys.path.insert(0, str(SRC))
    import ribbontensor

    if not Path(ribbontensor.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ribbontensor imported from {ribbontensor.__file__}, not from {SRC}")


def find_caches():
    """Every lru_cache reachable from the package's module attributes."""
    found = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname != "ribbontensor" and not modname.startswith("ribbontensor."):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and id(value) not in found:
                short = value.__module__.rsplit(".", 1)[-1]
                found[id(value)] = (f"{short}.{value.__qualname__}", value)
    return dict(sorted(found.values()))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), default="plain")
    parser.add_argument("--spawn-t", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--check", action="store_true", help="check every output")
    parser.add_argument("--round", type=int, default=0, help="which input set of the seed")
    parser.add_argument("--tag", default="0")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    work_dir = OUT / f"work-{args.workload}-{args.seed}-{args.tag}-{args.mode}"
    if args.workload == "cli":
        wl = workloads.Cli(args.size, work_dir, SRC)
    else:
        wl = {"verify": workloads.Verify, "symbolic": workloads.Symbolic,
              "surgery": workloads.Surgery}[args.workload](args.size)
    try:
        items = wl.generate(args.seed, args.round)
        setup_s = time.monotonic() - args.spawn_t
        ref_s = reference_s(SETUP_REFS)
        setup = {"wall_setup_s": setup_s, "setup_s": setup_s * REF_S / ref_s}
        if args.mode == "setup":
            print("RESULT " + json.dumps(setup))
            return 0
        result = run_pass(wl, items, args, ref_s)
        result.update(setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("RESULT " + json.dumps(result))
    return 0


def run_pass(wl, items, args, ref_s) -> dict:
    caches = find_caches()
    before = {name: fn.cache_info() for name, fn in caches.items()}
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    digests, latencies, scaled, failures = [], [], [], {}
    checked = {name: [0, 0] for name in caches}  # cache hits, misses made by checks
    perf = time.perf_counter
    for i, item in enumerate(items):
        if tracer:
            tracer.item = i
        t0 = perf()
        try:
            out = wl.run(item)
        except Exception as exc:  # counted as a failed item, the run goes on
            out = None
            failures[i] = f"raised {type(exc).__name__}: {exc}"
        latencies.append((perf() - t0) * 1000.0)
        ref_before, ref_s = ref_s, reference_s(
            max(1, min(REF_MAX, round(REF_SHARE * latencies[-1] / 1000.0 / REF_S))))
        scaled.append(latencies[-1] * REF_S / ((ref_before + ref_s) / 2))
        # Outputs are checked and dropped one at a time, with the clock
        # stopped, so that neither the checks nor a heap of kept outputs
        # show in the timings, the garbage collector's work or the RSS.
        digests.append(None if out is None else digest(wl.summary(out)))
        if args.check and out is not None:
            was = {name: fn.cache_info() for name, fn in caches.items()}
            try:
                reason = wl.check(item, out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                failures[i] = reason
            for name, fn in caches.items():
                now = fn.cache_info()
                checked[name][0] += now.hits - was[name].hits
                checked[name][1] += now.misses - was[name].misses
        del out
    loop_s = sum(latencies) / 1000.0

    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer and wl.name == "cli":
        # The timed calls ran in subprocesses; replay them in-process for
        # the per-layer split of each command (and its cache use).
        for i, argv in enumerate(items):
            tracer.item = i
            tracer.span(f"cli.main.{argv[0]}", wl.in_process, argv)
    cache_report = {}
    for name, fn in caches.items():
        now, was = fn.cache_info(), before[name]
        cache_report[name] = {"hits": now.hits - was.hits - checked[name][0],
                              "misses": now.misses - was.misses - checked[name][1],
                              "entries": now.currsize}

    layers = None
    if tracer:
        tracer.uninstall()
        for i, item in enumerate(items):
            need = getattr(wl, "required_comparisons", None)
            if need and i not in failures and tracer.item_comparisons[i] < need(item):
                failures[i] = f"vacuous: {tracer.item_comparisons[i]} comparisons"
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-{args.seed}-{args.tag}.bin")
        layers = {"spans": tracer.by_name(), "wrapped": tracer.wrapped,
                  "counters": dict(tracer.counters),
                  "distinct_ops": tracer.distinct_ops(), "span_count": len(tracer.span_start)}

    return {
        "loop_s": loop_s,
        "items": sum(wl.items_in(item) for item in items),
        "calls": len(items),
        "latencies_ms": scaled,
        "wall_latencies_ms": latencies,
        "rss_mb": rss_mb,
        "digests": digests,
        "failures": failures,
        "caches": cache_report,
        "layers": layers,
    }


if __name__ == "__main__":
    sys.exit(main())

"""The ribbontensor benchmark: four seeded workloads, one traced split.

    python3 bench/run.py --workload verify|symbolic|surgery|cli|all
                         --seed N --seconds S --trace 0|1 [--size full|tiny]

A run repeats passes of the workload, each in a fresh interpreter started by
``worker.py``, until ``--seconds`` have gone by (three passes at least).
Pass k runs round k of the seed's inputs, so a run pools several input sets,
and checks every output.  Every pass is one client in a closed loop: one
item at a time, one process, one thread.

The host's speed swings by half or more for seconds at a time, and that
swing, not the program, would set a run's figures.  So every time metric is
scaled to a steady host by the reference task the worker runs between items
(see ``worker.py``); the wall-clock figures are printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes over round 0, checks that every pass
reproduces the first one's outputs, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics with their units, the provenance, the cache report and
the reasons for any failure.  ``--workload all`` runs the four workloads
untraced and traced, one after the other, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("verify", "symbolic", "surgery", "cli")
KINDS = ("mainmv", "main", "corz", "fulltensor", "twosum", "br", "brzhat", "transition",
         "planemvbr", "tutte")
CLI_COMMANDS = ("info", "op", "twosum", "tensor", "poly", "verify")
LAYERS = ("arrow", "packaged", "poly", "polynomials", "tensor_formula", "cli")
HARD_LIMIT_S = 150.0  # a run must end within 180 s, set-up probes included
SETUP_SAMPLES = 5

# Which end-to-end metric each layer's metrics should move, and on which
# workload they mostly show (and where little or nothing).
LAYER_TABLE = (
    ("arrow", "calls/self_s of boundary_components, edge_op_traced, canonical_transforms, "
     "surface_stats; hit_ratio/entries of every lru_cache", "items_per_s, peak_rss_mb",
     "surgery", "verify"),
    ("packaged", "calls/self_s of apply_edge_op, two_sum, compose_two_sums, "
     "canonical_packaged; apply_edge_op.distinct_ratio", "items_per_s",
     "surgery; verify (about 9%)", "symbolic"),
    ("poly", "calls/self_s of MultiPoly.__mul__/__add__, to_canonical_string, solve_linear, "
     "determinant; __mul__.term_pairs, monomial_share", "items_per_s",
     "symbolic", "verify, surgery (zero)"),
    ("polynomials", "calls/self_s of the twelve engines; hit_ratio/leaves of the two state "
     "tables", "items_per_s", "verify", "surgery (zero)"),
    ("tensor_formula", "run_verification.<kind>.s; verify_identity calls/comparisons/"
     "resampled; calls/self_s of solve_phis, build_phi_matrix", "items_per_s, fail_ratio",
     "verify", "-"),
    ("cli", "import_ms; main.<command>.self_s", "call_p50_ms, call_p90_ms, setup_s",
     "cli", "-"),
)


def percentile(values, q, band=5):
    """The q-th percentile, smoothed: the mean of the values between the
    (q - band)-th and (q + band)-th percentiles, so that it does not jump
    with the one item that happens to sit at the q-th."""
    ordered = sorted(values)
    n = len(ordered)
    lo, hi = n * (q - band) // 100, -(-n * (q + band) // 100)
    if hi - lo < 2:
        return ordered[max(0, -(-n * q // 100) - 1)]
    return statistics.fmean(ordered[lo:hi])


def run_worker(workload, seed, size, mode, round_=0, check=False, tag="0", timeout=HARD_LIMIT_S):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--mode", mode, "--round", str(round_), "--tag", str(tag)]
    if check:
        cmd.append("--check")
    # A fixed hash seed fixes set and dict order, and with it the work a
    # pass does; the worker puts src/ on its own path.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd += ["--spawn-t", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} {mode} pass exceeded {timeout:.0f} s")
    lines = [line for line in stdout.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} pass exited with code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def import_ms(samples=SETUP_SAMPLES):
    """Median wall time of an interpreter that only imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ribbontensor.cli"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def run_workload(workload, seed, seconds, trace, size):
    """All passes of one run; returns the aggregated result."""
    begin = time.monotonic()
    cycle = ("plain", "traced") if trace else ("plain",)
    min_passes = 2 if trace else 3
    passes = []
    while True:
        mode = cycle[len(passes) % len(cycle)]
        round_ = 0 if trace else len(passes)
        left = HARD_LIMIT_S - (time.monotonic() - begin)
        res = run_worker(workload, seed, size, mode, round_, check=not (trace and passes),
                         tag=len(passes), timeout=left)
        res["mode"], res["round"] = mode, round_
        passes.append(res)
        elapsed = time.monotonic() - begin
        mean = elapsed / len(passes)
        if elapsed + mean > HARD_LIMIT_S * 0.8:
            break
        if len(passes) >= min_passes and elapsed + mean > seconds:
            break
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        left = HARD_LIMIT_S - (time.monotonic() - begin)
        setups.append(run_worker(workload, seed, size, "setup", tag="s", timeout=left))
    return aggregate(workload, passes, setups, trace)


def pooled(passes, key="latencies_ms"):
    """The item times in ms of all the passes."""
    return [x for p in passes for x in p[key]]


def items_per_s(passes, key="latencies_ms"):
    """The median over passes of items over item time: a pass that a burst
    on the host slowed beyond what the scaling caught does not count."""
    return statistics.median(p["items"] / (sum(p[key]) / 1000.0) for p in passes)


def aggregate(workload, passes, setups, trace):
    first = {}  # round -> the pass that checked its outputs
    failures = {}  # (pass, item) -> reason
    for n, p in enumerate(passes):
        for i, reason in p["failures"].items():
            failures[(n, int(i))] = reason
        ref = first.setdefault(p["round"], p)
        for i, (a, b) in enumerate(zip(ref["digests"], p["digests"])):
            if a != b:
                failures.setdefault((n, i), "output differs from the checked pass")
    attempted = sum(p["calls"] for p in passes)
    failed = len(failures)
    plain = [p for p in passes if p["mode"] == "plain"]
    rate = items_per_s(plain)
    latencies = pooled(plain)
    wall = pooled(plain, "wall_latencies_ms")
    end_to_end = {
        "items_per_s": (rate, "items/s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
        "call_p50_ms": (percentile(latencies, 50), "ms"),
        "call_p90_ms": (percentile(latencies, 90), "ms"),
    }
    out = {
        "workload": workload,
        "passes": len(passes),
        "pass_items_per_s": [items_per_s([p]) for p in passes],
        "pass_wall_items_per_s": [p["items"] / p["loop_s"] for p in passes],
        "pass_modes": [p["mode"] for p in passes],
        "calls_timed": len(latencies),
        "wall": {
            "items_per_s": (items_per_s(plain, "wall_latencies_ms"), "items/s"),
            "setup_s": (statistics.median(p["wall_setup_s"] for p in setups), "s"),
            "call_p50_ms": (percentile(wall, 50), "ms"),
            "call_p90_ms": (percentile(wall, 90), "ms"),
        },
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": {f"pass {n} item {i}": r for (n, i), r in sorted(failures.items())},
        "caches": passes[0]["caches"],
        "end_to_end": end_to_end,
    }
    if trace:
        traced = [p for p in passes if p["mode"] == "traced"]
        traced_rate = items_per_s(traced)
        per = [layer_metrics(p) for p in traced]
        layer = {name: (statistics.median_low(m[name][0] for m in per), unit)
                 for name, (_, unit) in per[0].items()}
        layer["cli.import_ms"] = (import_ms(), "ms")
        layer["trace.items_per_s_ratio"] = (traced_rate / rate, "ratio")
        out["per_layer"] = layer
        out["spans_recorded"] = traced[0]["layers"]["span_count"]
    return out


def layer_metrics(p) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    layers, caches = p["layers"], p["caches"]
    spans, counters = layers["spans"], layers["counters"]

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    m = {}
    for name in layers["wrapped"]:
        if name != "tensor_formula.run_verification":  # reported per kind below
            m[f"{name}.calls"] = (span(name)[0], "count")
            m[f"{name}.self_s"] = (span(name)[1], "s")
    for name, c in caches.items():
        lookups = c["hits"] + c["misses"]
        m[f"{name}.hit_ratio"] = (c["hits"] / lookups if lookups else 0.0, "ratio")
        m[f"{name}.entries"] = (c["entries"], "count")
    for name in ("polynomials.q_state_table.leaves", "polynomials.transition_state_table.leaves",
                 "poly.MultiPoly.__mul__.term_pairs", "tensor_formula.verify_identity.comparisons",
                 "tensor_formula.verify_identity.resampled"):
        m[name] = (counters.get(name, 0), "count")
    products = counters.get("poly.MultiPoly.__mul__.products", 0)
    m["poly.MultiPoly.__mul__.monomial_share"] = (
        counters.get("poly.MultiPoly.__mul__.monomial", 0) / products if products else 0.0,
        "ratio")
    op_calls = span("packaged.apply_edge_op")[0]
    m["packaged.apply_edge_op.distinct_ratio"] = (
        layers["distinct_ops"] / op_calls if op_calls else 0.0, "ratio")
    for kind in KINDS:
        m[f"tensor_formula.run_verification.{kind}.s"] = (
            span(f"tensor_formula.run_verification.{kind}")[2], "s")
    for cmd in CLI_COMMANDS:
        m[f"cli.main.{cmd}.self_s"] = (span(f"cli.main.{cmd}")[1], "s")
    for layer in LAYERS:
        total = sum(v[1] for name, v in spans.items() if name.split(".", 1)[0] == layer)
        m[f"layer.{layer}.self_s"] = (total, "s")
    return m


def provenance(seed):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha or "unknown (not a git checkout)",
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report_lines(res, spec):
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(res["workload"], "")
    lines = [f"workload {res['workload']}: {res['passes']} passes, {res['calls_timed']} timed calls",
             f"  why: {why}"]
    for key, label in (("pass_items_per_s", "items/s"), ("pass_wall_items_per_s", "wall items/s")):
        lines.append(f"  {label} by pass: " + ", ".join(
            f"{r:.4g}{'' if m == 'plain' else ' (' + m + ')'}"
            for r, m in zip(res[key], res["pass_modes"])))
    for name, (value, unit) in res["end_to_end"].items():
        lines.append(f"  {name:<24} {value:>14.6g} {unit}")
    for name, (value, unit) in res["wall"].items():
        lines.append(f"  {'wall_' + name:<24} {value:>14.6g} {unit} (unscaled)")
    lines.append(f"  {'fail_ratio':<24} {res['fail_ratio']:>14.6g} failed/attempted "
                 f"({res['failed']}/{res['attempted']})")
    for name, (value, unit) in res.get("per_layer", {}).items():
        lines.append(f"  {name:<48} {value:>14.6g} {unit}")
    for name, c in res["caches"].items():
        lines.append(f"  cache {name}: hits={c['hits']} misses={c['misses']} entries={c['entries']}")
    for where, reason in res["failures"].items():
        lines.append(f"  FAILED {where}: {reason}")
    return lines


def save(res, prov, spec):
    OUT.mkdir(exist_ok=True)
    record = dict(res, provenance=prov, layer_table=LAYER_TABLE,
                  why={w["name"]: w["why"] for w in spec["workloads"]})
    trace = int("per_layer" in res)
    path = OUT / f"result-{res['workload']}-seed{prov['seed']}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ribbontensor benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few items per pass, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ribbontensor" / "__init__.py").is_file():
        print(f"error: no ribbontensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    prov = provenance(args.seed)
    print("provenance: " + json.dumps(prov))
    try:
        if args.workload == "all":
            results = [run_workload(w, args.seed, args.seconds, t, args.size)
                       for w in WORKLOADS for t in (0, 1)]
        else:
            results = [run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for res in results:
        for line in report_lines(res, spec):
            print(line)
        save(res, prov, spec)
        if args.workload != "all":
            wanted = spec["per_layer" if args.trace else "end_to_end"]
            source = res["per_layer" if args.trace else "end_to_end"]
            # A listed metric the program no longer has (a cache removed,
            # say) reads 0 rather than failing the run.
            metrics = {m["name"]: dict(zip(("value", "unit"), source.get(m["name"], (0, m["unit"]))))
                       for m in wanted}
        else:
            prefix = f"{res['workload']}." + ("trace." if "per_layer" in res else "")
            source = dict(res["end_to_end"], fail_ratio=(res["fail_ratio"], "failed/attempted"))
            if "per_layer" in res:
                source = {"items_per_s_ratio": res["per_layer"]["trace.items_per_s_ratio"]}
            for name, (value, unit) in source.items():
                metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

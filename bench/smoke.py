"""Smoke test of the benchmark at tiny sizes: python3 bench/smoke.py

Runs every workload untraced and traced with ``--size tiny``, then the
one-command ``--workload all`` table, and checks that each run is correct
and emits exactly the metrics BENCHMARK.json names, each with its unit.  It
also checks the traced split that needs no timing (surgery makes no
polynomial calls) and that the benchmark refuses to run, with a nonzero
exit and no result line, in a copy holding only BENCHMARK.json and bench/.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(root, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "1", "--size", "tiny", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, trace, problems):
    proc = run(ROOT, "--workload", workload, "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    res = last_json(proc.stdout)
    if proc.returncode != 0 or res is None:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if not res.get("correct") or res.get("failed") or res.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={res.get('correct')} failed={res.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = check_run(spec, w["name"], trace, problems)
            if res and trace and w["name"] == "surgery":
                calls = {n: m["value"] for n, m in res["metrics"].items()
                         if n.startswith(("poly.", "polynomials.")) and n.endswith(".calls")}
                if any(calls.values()):
                    problems.append(f"surgery: polynomial layers were called: {calls}")

    proc = run(ROOT, "--workload", "all", "--trace", "0")
    res = last_json(proc.stdout)
    if proc.returncode != 0 or not res or not res["correct"]:
        problems.append(f"--workload all: exit {proc.returncode}, result {res}")
    else:
        for w in spec["workloads"]:
            for m in spec["end_to_end"] + [{"name": "fail_ratio"}]:
                if f"  {m['name']} " not in proc.stdout or f"{w['name']}.{m['name']}" not in res["metrics"]:
                    problems.append(f"--workload all: no {m['name']} for {w['name']}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", "verify", "--trace", "0")
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for p in problems:
        print("PROBLEM", p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

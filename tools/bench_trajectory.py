#!/usr/bin/env python3
"""Run the benchmark suite and append a dated performance snapshot.

Executes ``pytest benchmarks/`` with ``pytest-benchmark``'s JSON output,
then distils each benchmark into a compact record — wall-time stats plus
any ``extra_info`` the benchmark attached (the perf benchmarks report
their measured speedup ratios there) — stamps the batch with the
machine's core count (``cpu_count``, and ``affinity_cores`` visible to
the process), and appends it to
``BENCH_<date>.json`` in the output directory.  Appending (rather than
overwriting) builds a same-day trajectory: run it before and after a
change and diff the two entries.

Usage:
    python tools/bench_trajectory.py [--output-dir DIR] [-k EXPR]

Each entry records the git revision it measured, and — unless
``REPRO_CATALOG=off`` — is also ingested into the sqlite results
catalog, so ``repro results compare`` and ``tools/perf_gate.py`` can
diff revisions without re-running anything.  The pytest subprocess runs
with ``PYTHONHASHSEED=0`` so hash-order effects never masquerade as
perf swings.

CI wires this into the bench-smoke and perf-gate jobs and uploads the
snapshot as an artifact, so every push leaves a queryable perf trail.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def run_benchmarks(select: str, pytest_args: list) -> dict:
    """Run the suite, return the parsed pytest-benchmark JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "benchmarks.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/",
            "-q",
            "--benchmark-disable-gc",
            f"--benchmark-json={raw_path}",
        ]
        if select:
            cmd += ["-k", select]
        cmd += pytest_args
        # Pin hash randomization: benchmark comparisons across runs
        # must not see dict/set iteration-order noise.  The src/ dir on
        # PYTHONPATH keeps this runnable from a bare checkout (CI pip
        # installs the package, but the gate must not require that).
        path_parts = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {
            **os.environ,
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": os.pathsep.join(p for p in path_parts if p),
        }
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
        return json.loads(raw_path.read_text())


def distil(raw: dict) -> dict:
    """Reduce pytest-benchmark output to one trajectory entry."""
    from repro.catalog import current_git_rev

    entry = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_rev": current_git_rev(REPO_ROOT),
        "machine": raw.get("machine_info", {}).get("node", ""),
        "python": raw.get("machine_info", {}).get("python_version", ""),
        # Wall-time readings (and jobs>1 speedups above all) mean little
        # without the core count they were taken on.
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "benchmarks": [],
    }
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        entry["benchmarks"].append(
            {
                "name": bench.get("name", ""),
                "wall_s": {
                    "min": stats.get("min"),
                    "mean": stats.get("mean"),
                    "max": stats.get("max"),
                    "rounds": stats.get("rounds"),
                },
                # Speedup ratios etc. reported by the benchmark itself.
                "extra_info": bench.get("extra_info", {}),
            }
        )
    return entry


def append_snapshot(entry: dict, output_dir: Path) -> Path:
    """Append ``entry`` to today's ``BENCH_<date>.json`` trajectory."""
    output_dir.mkdir(parents=True, exist_ok=True)
    date = datetime.date.today().isoformat()
    path = output_dir / f"BENCH_{date}.json"
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return path


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory receiving BENCH_<date>.json (default: repo root)",
    )
    parser.add_argument(
        "-k",
        "--select",
        default="",
        help="pytest -k expression to run a subset of the benchmarks",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest verbatim",
    )
    args = parser.parse_args(argv)

    raw = run_benchmarks(args.select, args.pytest_args)
    entry = distil(raw)
    path = append_snapshot(entry, args.output_dir)
    names = ", ".join(b["name"] for b in entry["benchmarks"]) or "none"
    print(f"appended {len(entry['benchmarks'])} benchmark(s) [{names}] to {path}")

    # Mirror the snapshot into the results catalog (REPRO_CATALOG=off
    # opts out) so perf trajectories are queryable next to experiments.
    try:
        from repro.catalog import catalog_enabled, ingest_bench_entry

        if catalog_enabled():
            count = ingest_bench_entry(entry, source=str(path))
            from repro.catalog.ingest import resolve_catalog_path

            print(f"ingested {count} benchmark run(s) into "
                  f"{resolve_catalog_path()} @ {entry['git_rev'][:12]}")
    except Exception as exc:  # catalog trouble must not fail the bench run
        print(f"warning: catalog ingest skipped: {exc}", file=sys.stderr)


if __name__ == "__main__":
    main()

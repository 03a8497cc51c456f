"""The repository benchmark: one workload, measured end to end or by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig13_pairs --seed 1 --seconds 20 --trace 0

Every repetition is a fresh interpreter (``rep.py``), so each pays what a
``repro`` command pays.  Repetitions run back to back until ``--seconds``
have passed; the result is the mean (run CPU time) or the median
(everything else) over them.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json.
``--trace 1`` alternates traced and untraced repetitions and prints every
per-layer metric; the untraced twin gives ``trace_overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
(machine context, every repetition, the layer table) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

from layers import PREDICTIONS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 120.0

# Library settings read from the environment; a stray shell value must
# not change what is measured.
CLEARED_ENV = (
    "REPRO_ENGINE_MODE",
    "REPRO_FAULT_PLAN",
    "REPRO_FAULT_SEED",
    "REPRO_TRACE",
    "REPRO_JOBS",
    "REPRO_BACKEND",
    "REPRO_CATALOG",
    "REPRO_SCENARIO_PLUGINS",
)

WORKLOADS = ("fig13_pairs", "cluster_churn", "zoo")


def child_env(root: Path, catalog: str, git_rev: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONHASHSEED"] = "0"
    # Catalog ingest records this instead of running git, which would
    # search directories above the checkout.
    env["REPRO_GIT_REV"] = git_rev
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CATALOG"] = catalog
    return env


def run_rep(root: Path, workload: str, seed: int, mode: str, index: int,
            git_rev: str) -> dict:
    """One repetition in a fresh interpreter; returns its JSON report."""
    stem = OUT / f"{workload}-{os.getpid()}-{index}"
    # Only zoo ingests; it gets a throwaway catalog, never results/.
    catalog = f"{stem}.sqlite" if workload == "zoo" else "off"
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    if mode == "traced":
        command += ["--spans-out", str(OUT / f"spans-{workload}-seed{seed}.json")]
    out_path, err_path = Path(f"{stem}.out"), Path(f"{stem}.err")
    timed_out = False
    # Files, not pipes: a pool worker that outlived the repetition would
    # hold a pipe open and stall the read.
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=root, env=child_env(root, catalog, git_rev), stdout=out, stderr=err,
            start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
            os.killpg(proc.pid, signal.SIGUSR1)  # rep.py dumps its stacks
            time.sleep(1.0)
        finally:
            # The session holds the repetition and any pool workers it
            # forked; none may outlive the repetition.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    try:
        stdout, stderr = out_path.read_text(), err_path.read_text()
    finally:
        for path in [out_path, err_path] + [Path(p) for p in glob.glob(f"{stem}.sqlite*")]:
            path.unlink()
    if timed_out or proc.returncode != 0:
        what = f"timed out after {CHILD_TIMEOUT_S:.0f} s" if timed_out \
            else f"exited {proc.returncode}"
        raise RuntimeError(f"{workload} {mode} repetition {what}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def machine_context(root: Path, seed: int) -> dict:
    import numpy

    # The catalog's override first; a checkout without .git has no rev
    # (git would otherwise report an enclosing repository's).
    git_rev = os.environ.get("REPRO_GIT_REV", "unknown")
    if git_rev == "unknown" and (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            git_rev = rev.stdout.strip() or git_rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev,
        "seed": seed,
    }


def other_times(reps: list) -> dict:
    """Medians reported beside the metrics.  On a shared host the wall
    times follow the neighbours' load more than the program."""
    return {
        "wall_s": median(r["wall_s"] for r in reps),
        "setup_wall_s": median(r["setup_wall_s"] for r in reps),
        "cpu_s_median": median(r["cpu_s"] for r in reps),
    }


def end_to_end(reps: list) -> dict:
    # Run CPU time is the mean over repetitions: between runs it spread
    # less than the median, minimum or lower quartile (see README.md).
    first = reps[0]
    return {
        "cpu_s": mean(r["cpu_s"] for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
        "host_us_per_kernel": mean(r["cpu_s"] * 1e6 / r["kernels"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        **{k: v for k, v in first["sim"].items() if k != "sim.bless_requests"},
    }


def median_rep(reps: list, key) -> dict:
    return sorted(reps, key=key)[(len(reps) - 1) // 2]


def per_layer(reps: list) -> dict:
    """Layer table of the traced repetition with the median wall time, so
    its self times plus unattributed_s add up to its traced_wall_s."""
    traced = [r for r in reps if r["mode"] == "traced"]
    untraced = [r for r in reps if r["mode"] in ("plain", "inproc")]
    probes = [r for r in reps if r["mode"] == "probe"]
    layers = dict(median_rep(traced, lambda r: r["wall_s"])["layers"])
    if probes:
        # zoo's parallel.* come from its untraced jobs=2 repetition.
        layers.update(median_rep(probes, lambda r: r["layers"]["parallel.wall_s"])["layers"])
    layers["setup.import_s"] = median(r["import_s"] for r in reps)
    layers["trace_overhead"] = (median(r["wall_s"] for r in traced)
                                / median(r["wall_s"] for r in untraced) - 1.0)
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    bench_file = root / "BENCHMARK.json"
    if not (root / "src" / "repro").is_dir() or not bench_file.is_file():
        print("perfbench: run from the root of a repository checkout "
              "(src/repro and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    OUT.mkdir(exist_ok=True)

    context = machine_context(root, args.seed)
    if args.trace:
        modes = ["plain", "traced"] if args.workload != "zoo" \
            else ["inproc", "traced", "probe"]
    else:
        modes = ["plain"]
    reps = []
    deadline = time.monotonic() + args.seconds
    try:
        while not reps or time.monotonic() < deadline:
            for mode in modes:
                reps.append(run_rep(root, args.workload, args.seed, mode, len(reps),
                                    context["git_rev"]))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    errors = sorted({e for r in reps for e in r["errors"]})
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        errors.append(f"simulated outputs differ between repetitions: {digests}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not errors and failed == 0

    if args.trace:
        values = per_layer(reps)
        wanted = bench["per_layer"]
        if set(PREDICTIONS) != {m["name"] for m in wanted}:
            errors.append("layers.PREDICTIONS and BENCHMARK.json per_layer differ")
            correct = False
    else:
        values = end_to_end(reps) if correct else {}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    if len(metrics) != len(wanted):
        missing = [m["name"] for m in wanted if m["name"] not in values]
        errors.append(f"metrics not measured: {missing}")
        correct = False

    first = reps[0]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "context": context,
        "repetitions": len(reps),
        "digest": digests[0],
        "errors": errors,
        "workload_report": first["report"],
        "bless_requests": first["sim"].get("sim.bless_requests"),
        "other_times": {} if args.trace else other_times(reps),
        "metrics": metrics,
        "reps": reps,
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(reps)} ({', '.join(modes)})")
    print("context " + "  ".join(f"{k}={v}" for k, v in context.items()))
    print(f"digest {digests[0]}" + ("" if len(digests) == 1 else " (MISMATCH)"))
    for key, value in first["report"].items():
        print(f"  {key:34s} {value:.6g}")
    if "sim.bless_requests" in first["sim"]:
        print(f"  {'sim.bless_requests':34s} {first['sim']['sim.bless_requests']:.0f}")
    for m in wanted:
        value = metrics.get(m["name"], {}).get("value", float("nan"))
        print(f"  {m['name']:34s} {value:14.6g} {m['unit']:6s} "
              f"{PREDICTIONS.get(m['name'], '') if args.trace else ''}")
    for key, value in report["other_times"].items():
        print(f"  {key:34s} {value:14.6g} s      (median, not a metric)")
    if args.trace and correct:
        covered = sum(v for k, v in values.items()
                      if k.endswith(".self_s")) + values["unattributed_s"]
        print(f"layer self times + unattributed_s = {covered:.6f} s; "
              f"traced_wall_s = {values['traced_wall_s']:.6f} s")
    for error in errors:
        print(f"ERROR {error}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

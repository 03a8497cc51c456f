"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py`` once per repetition, so every repetition pays what
a ``repro`` command pays: imports and the process-global memos (the
engine's rate memo, profiler results) starting empty.  Prints one JSON
object as its last line of standard output.

Modes:
  plain   the end-to-end configuration, nothing wrapped
  inproc  like plain, but zoo runs in process (the traced run's twin)
  probe   plain plus a wrapper on run_cells and catalog ingest only
  traced  every layer boundary wrapped; zoo runs in process
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import os
import resource
import signal
import sys
import time
from pathlib import Path


def _vm_hwm_mb(pid: str) -> float:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers."""
    own = _vm_hwm_mb("self")
    if own == 0.0:  # no /proc: ru_maxrss is in KiB on Linux
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_vm_hwm_mb(str(p.pid)) for p in multiprocessing.active_children())


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name: utime and stime are
    # the 12th and 13th.
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_s() -> float:
    """CPU seconds used so far by this process and its pool workers.

    Unlike wall time, this leaves out the time the process waits for a
    core, including time the hypervisor gives the core to another guest.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + reaped.ru_utime + reaped.ru_stime
            + sum(_proc_cpu_s(p.pid) for p in multiprocessing.active_children()))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "inproc", "probe", "traced"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawn")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    # run.py sends SIGUSR1 to a repetition that hangs: dump every stack.
    # (A signal handler, not a watchdog thread: pool workers fork later.)
    faulthandler.register(signal.SIGUSR1, all_threads=True)

    started = time.perf_counter()
    import repro  # noqa: F401
    import repro.experiments.cluster_scale  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.scenarios.runner  # noqa: F401
    import_s = time.perf_counter() - started

    import layers
    import workloads

    rec = layers.SpanRecorder()
    setup_start = time.perf_counter()
    if args.mode == "traced":
        layers.install_tracer(rec)
    elif args.mode == "probe":
        layers.install_harness_probe(rec)
    run = workloads.WORKLOADS[args.workload](
        args.seed, inproc=args.mode in ("inproc", "traced"))
    setup_cpu = cpu_s()
    start = time.perf_counter()
    setup_wall = time.monotonic() - args.spawned_at
    outcome = run()
    end = time.perf_counter()
    run_cpu = cpu_s() - setup_cpu

    rss = peak_rss_mb()
    report = {
        "mode": args.mode,
        "wall_s": end - start,
        "cpu_s": run_cpu,
        "setup_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "import_s": import_s,
        "peak_rss_mb": rss,
        "kernels": workloads.kernels_completed(outcome),
        "digest": workloads.digest(outcome),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "sim": workloads.sim_metrics(outcome) if outcome.cells else {},
        "report": outcome.report,
    }
    if args.mode in ("traced", "probe"):
        report["layers"] = layers.grid_metrics(rec)
    if args.mode == "traced":
        report["layers"].update(layers.layer_metrics(rec, start, end, setup_start))
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"origin": start, "spans": rec.spans}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

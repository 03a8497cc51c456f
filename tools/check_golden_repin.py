#!/usr/bin/env python3
"""Show that a golden re-pin removed host counters and changed nothing else.

Compares every file under ``tests/golden/`` at a base git revision with
the working tree.  The check passes when:

* every golden file except ``scenario_smoke.json`` is byte-identical;
* in ``scenario_smoke.json`` the only removed keys are the host-side
  ``engine_*`` and ``config_cache_*`` counters and ``kernels_per_squad``;
* the only added key is ``squad_kernels``, and wherever it appears
  ``squad_kernels / squads`` equals the base's ``kernels_per_squad``;
* every other value is unchanged.

Usage: python tools/check_golden_repin.py BASE_REV

For the re-pin that moved the host counters out of ``ServingResult.extras``,
BASE_REV is that change's parent (``bc39dd2``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path("tests") / "golden"
REPINNED = "scenario_smoke.json"
HOST_PREFIXES = ("engine_", "config_cache_")


def _at_rev(rev: str, path: Path) -> bytes:
    return subprocess.run(
        ["git", "show", f"{rev}:{path.as_posix()}"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout


def _leaves(tree, path=()) -> Dict[tuple, dict]:
    """Every innermost dict of scalars (one result's metrics), by path."""
    if all(not isinstance(v, dict) for v in tree.values()):
        return {path: tree}
    out: Dict[tuple, dict] = {}
    for key, value in tree.items():
        out.update(_leaves(value, path + (key,)))
    return out


def check(rev: str) -> List[str]:
    errors: List[str] = []
    for path in sorted((ROOT / GOLDEN).glob("*.json")):
        if path.name != REPINNED and path.read_bytes() != _at_rev(rev, GOLDEN / path.name):
            errors.append(f"{path.name}: differs from {rev}")

    old = _leaves(json.loads(_at_rev(rev, GOLDEN / REPINNED)))
    new = _leaves(json.loads((ROOT / GOLDEN / REPINNED).read_text()))
    if set(old) != set(new):
        errors.append(f"{REPINNED}: result set changed")
    removed: Counter = Counter()
    swapped = 0
    for where in sorted(set(old) & set(new)):
        before, after = old[where], new[where]
        label = "/".join(where)
        for key in before.keys() - after.keys():
            if key.startswith(HOST_PREFIXES):
                removed[next(p for p in HOST_PREFIXES if key.startswith(p)) + "*"] += 1
            elif key != "kernels_per_squad":
                errors.append(f"{label}: {key} removed")
        for key in after.keys() - before.keys():
            if key != "squad_kernels":
                errors.append(f"{label}: {key} added")
        if ("squad_kernels" in after) != ("kernels_per_squad" in before):
            errors.append(f"{label}: squad_kernels without kernels_per_squad")
        elif "squad_kernels" in after:
            swapped += 1
            if after["squad_kernels"] / after["squads"] != before["kernels_per_squad"]:
                errors.append(f"{label}: squad_kernels / squads != kernels_per_squad")
        for key in before.keys() & after.keys():
            if before[key] != after[key]:
                errors.append(f"{label}: {key} {before[key]!r} -> {after[key]!r}")
    print(f"{REPINNED}: {len(new)} results; removed "
          + ", ".join(f"{n} {k}" for k, n in sorted(removed.items()))
          + f" ({sum(removed.values())} keys); kernels_per_squad -> "
          f"squad_kernels in {swapped} results")
    return errors


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/check_golden_repin.py BASE_REV", file=sys.stderr)
        return 2
    errors = check(argv[0])
    for error in errors:
        print("FAIL", error)
    print("golden re-pin ok" if not errors else f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

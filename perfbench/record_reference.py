"""Store the program's current outputs as the reference for REFERENCE_SEEDS.

Run from the root of a checkout, at the commit whose outputs define
correctness (the commit that added this benchmark):

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>-seed<seed>.npz.  Never rerun it to make
a failing gate pass: a later commit must match these files, not replace them.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import gate
from run import HERE, REFERENCE_SEEDS
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from anderson_lab import cli

    (HERE / "reference").mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for seed in REFERENCE_SEEDS:
            out = Path.cwd() / ".bench_work" / "reference" / workload.name
            shutil.rmtree(out, ignore_errors=True)
            rc = cli.main([*workload.args, "--seed", str(seed), "--out", str(out)])
            if rc != 0:
                print(f"{workload.name} seed {seed}: exit {rc}", file=sys.stderr)
                return 1
            tables = {f: gate.read_table(out / f) for f in workload.expected(seed)}
            gate.save_tables(HERE / "reference" / f"{workload.name}-seed{seed}.npz", tables)
            print(f"{workload.name} seed {seed}: {', '.join(tables)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write the stored references of the benchmark's output check.

Run from the repository root, at the commit whose outputs are the
reference (one BLAS thread, as in the benchmark):

    python3 perfbench/make_reference.py [workload ...]

For every workload and every family seed in ``REFERENCE_SEEDS`` it runs
each item once and stores ``workloads.extract`` of its report in
``perfbench/reference/<workload>.json``.
"""

import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main(names) -> int:
    work = run.OUT / "work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            stored = {}
            for fseed in workloads.REFERENCE_SEEDS:
                entries = {}
                for items in workload.passes(fseed, work):
                    for item in items:
                        path = work / "report.json"
                        code = workloads.run_item(item, path)
                        entries[item.key] = workloads.extract(
                            item.kind, code, workloads.read_report(path))
                        print(f"{name} {fseed} {item.key}: exit {code}", flush=True)
                stored[str(fseed)] = entries
            (workloads.REFERENCE_DIR / f"{name}.json").write_text(
                json.dumps(stored, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Regenerate ``references.json`` from the sublln source in the current checkout.

Run from the repository root, on the commit whose outputs are the reference
(the stored file was produced by the seed code, before any optimisation)::

    PYTHONPATH=src python3 perfbench/make_references.py

Each workload runs one round; every op's output is reduced by the workload's
own ``summarize`` and stored under the op's label.  Reports of the ``verify_all``
workload drop the seed-dependent Monte Carlo columns, so one seed serves all.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd()
    tmp_root = root / ".perfbench_out" / "references"
    refs = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(root, 0, {})
            tmp = tmp_root / name
            tmp.mkdir(parents=True)
            done = {}
            for label, thunk in workload.ops(tmp):
                done[label] = thunk()
            refs[name] = {label: workload.summarize(label, out) for label, out in done.items()}
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

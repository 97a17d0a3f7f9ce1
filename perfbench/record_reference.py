"""Record the output digests every op must reproduce at the default seed.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are the reference; it rewrites
``perfbench/reference.json``. Re-record only when a change to ``pbes`` is
meant to change its outputs, and say so in the change's notes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["PBES_THREADS"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    work = HERE.parent / ".perfbench" / "work" / "reference"
    for name, cls in WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        workload = cls(DEFAULT_SEED, work)
        workload.prepare()
        digests = []
        for k in range(len(workload)):
            output = workload.run(k)
            problems = workload.structural_problems(k, output)
            if problems:
                print(f"{name} op {k}: {problems}", file=sys.stderr)
                return 1
            digests.append(workload.digest(k, output))
            workload.finish(k)
        reference[name] = digests
        print(f"{name}: {len(digests)} digests")
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

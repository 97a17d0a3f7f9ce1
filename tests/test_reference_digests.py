"""Every benchmark workload still reproduces its recorded reference digests.

``perfbench/reference.json`` holds a digest of each operation's output at
``DEFAULT_SEED``: metrics CSVs, exemplar selections and augmented image trees.
The benchmark marks a run incorrect when one differs, so a change to any of
those bytes fails here first. One cycle of each workload runs in ``tmp_path``
and each output goes through the workload's own ``check``. The digests hold
for the numpy/OpenBLAS build they were recorded with, as the benchmark's do.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_one_cycle_matches_the_reference_digests(tmp_path, name):
    workload = WORKLOADS.WORKLOADS[name](WORKLOADS.DEFAULT_SEED, tmp_path)
    workload.prepare()
    for k in range(len(workload)):
        assert workload.check(k, workload.run(k)) == [], (name, k)
        workload.finish(k)

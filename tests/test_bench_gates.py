"""Every benchmark job's acceptance gate, at the benchmark's tiny sizes.

The jobs of each workload in bench/workloads.py are run in-process the
way bench/run.py runs them (CLI jobs through `ifsfourier.cli.main` with
captured output, library jobs through `job.call()`), without timing and
without writing a run record.  A kernel change that breaks a gate fails
here before the benchmark is run.
"""

import sys
from pathlib import Path

import pytest

from ifsfourier import get_system
from ifsfourier.cli import main as cli_main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from run import run_job  # noqa: E402
import workloads  # noqa: E402


# harmonic-mc runs three seeds: its gate "MC >= closed form - 5 sigma"
# tightens as the closed forms grow toward h_C
SEEDS = {"harmonic-mc": (1, 2, 3)}


@pytest.mark.parametrize("workload", ["harmonic-mc", "spectral-exact", "stationary"])
def test_tiny_jobs_pass_their_gates(workload):
    systems = {name: get_system(name) for name in workloads.systems_for(workload)}
    failed = {}
    for seed in SEEDS.get(workload, (1,)):
        jobs = workloads.build_jobs(workload, seed, systems, tiny=True)
        assert jobs
        for job in jobs:
            _, _, problems = run_job(job, cli_main)
            if problems:
                failed["%s (seed %d)" % (job.name, seed)] = problems
    assert failed == {}

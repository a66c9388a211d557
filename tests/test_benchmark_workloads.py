"""Every benchmark workload passes perfbench's own output checks.

Each workload's invocation list runs once through `cavitysim.cli.main`
under the workload's patch, as one pass of `perfbench/one_pass.py` runs
it, and `check_invocation` then reads what was written.  A failed check
here is a run the benchmark would count as an incorrect output.
"""

import warnings

import pytest

import cavitysim.cli as cli
from test_benchmark_contract import _WORKLOADS_MODULE as WORKLOADS_MODULE

#: the one seed every workload is built at
SEED = 7


@pytest.mark.parametrize("name", sorted(WORKLOADS_MODULE.WORKLOADS))
def test_workload_passes_the_benchmark_checks(tmp_path, name):
    workload = WORKLOADS_MODULE.WORKLOADS[name]
    invocations = workload.build(SEED, str(tmp_path))
    outdirs = [tmp_path / f"{i:02d}" for i in range(len(invocations))]
    # warnings are recorded, not printed, as in a benchmark pass
    with workload.patch(), warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        for inv, outdir in zip(invocations, outdirs):
            assert cli.main(list(inv.argv) + ["--output", str(outdir)]) == 0, inv.label
    for inv, outdir in zip(invocations, outdirs):
        _, fidelity, errors = WORKLOADS_MODULE.check_invocation(inv, str(outdir))
        assert not errors, f"{inv.label}: {errors}"
        assert (fidelity is None) == (inv.fidelity is None), inv.label

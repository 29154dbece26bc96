"""SystemConfig validation for the runtime knobs."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.runtime import RUNTIMES
from repro.system.config import SystemConfig


class TestRuntimeValidation:
    def test_runtimes_tuple(self):
        assert tuple(RUNTIMES) == ("des", "threads")

    def test_removed_procs_runtime_refused_with_accepted_names(self):
        with pytest.raises(ReproError, match="procs") as refused:
            SystemConfig(runtime="procs")
        for name in RUNTIMES:
            assert repr(name) in str(refused.value)

    def test_default_is_des(self):
        assert SystemConfig().runtime == "des"

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ReproError, match="runtime"):
            SystemConfig(runtime="gpu")

    def test_workers_under_des_rejected(self):
        with pytest.raises(ReproError, match="workers"):
            SystemConfig(workers=4)

    def test_workers_must_be_positive(self):
        with pytest.raises(ReproError, match="workers"):
            SystemConfig(runtime="threads", workers=0)

    def test_mailbox_capacity_must_be_positive(self):
        with pytest.raises(ReproError, match="mailbox_capacity"):
            SystemConfig(runtime="threads", mailbox_capacity=0)

    def test_runtime_timeout_must_be_positive(self):
        with pytest.raises(ReproError, match="runtime_timeout"):
            SystemConfig(runtime="threads", runtime_timeout=0.0)

    def test_parallel_rejects_fault_plan(self):
        with pytest.raises(ReproError, match="fault"):
            SystemConfig(runtime="threads", fault_plan=FaultPlan())

    def test_parallel_rejects_custom_scheduler(self):
        from repro.sim.kernel import Scheduler

        with pytest.raises(ReproError, match="scheduler"):
            SystemConfig(runtime="threads", scheduler=Scheduler())

    def test_parallel_rejects_periodic_managers(self):
        with pytest.raises(ReproError, match="periodic"):
            SystemConfig(runtime="threads", manager_kind="periodic")

    def test_parallel_rejects_periodic_in_overrides(self):
        with pytest.raises(ReproError, match="periodic"):
            SystemConfig(
                runtime="threads", manager_kinds={"V1": "periodic"}
            )

    def test_threads_accepts_parallel_knobs(self):
        config = SystemConfig(
            runtime="threads", workers=4, mailbox_capacity=64,
            runtime_timeout=30.0,
        )
        assert config.workers == 4

"""The public API surface: everything advertised must exist and be documented."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: the packages whose exports load on first use
LAZY_PACKAGES = ("repro", "repro.obs", "repro.system", "repro.merge")


class TestPublicSurface:
    def test_all_names_resolve(self):
        missing = []
        for package in map(importlib.import_module, LAZY_PACKAGES):
            missing += [f"{package.__name__}.{name}" for name in package.__all__
                        if not hasattr(package, name)]
        assert missing == []

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) - set(namespace) == set()

    def test_no_export_shadows_a_submodule(self):
        """``import repro.pkg.name as m`` must bind one thing, not the
        module or the exported object depending on what loaded first."""
        clashes = []
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        for package in packages:
            submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
            clashes += [
                f"{package.__name__}.{name}"
                for name in getattr(package, "__all__", ())
                if name in submodules
            ]
        assert clashes == []

    def test_version_present(self):
        assert repro.__version__

    def test_core_entry_points_callable(self):
        assert callable(repro.WarehouseSystem)
        assert callable(repro.SystemConfig)
        assert callable(repro.parse_view)
        assert callable(repro.sweep)

    def test_public_classes_documented(self):
        """Every exported class/function carries a docstring."""
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert undocumented == []

    def test_subpackages_documented(self):
        import repro.cache
        import repro.conformance
        import repro.consistency
        import repro.integrator
        import repro.merge
        import repro.relational
        import repro.sim
        import repro.sources
        import repro.system
        import repro.viewmgr
        import repro.warehouse
        import repro.workloads

        for module in (
            repro,
            repro.relational,
            repro.sim,
            repro.sources,
            repro.integrator,
            repro.viewmgr,
            repro.merge,
            repro.warehouse,
            repro.consistency,
            repro.system,
            repro.workloads,
            repro.conformance,
            repro.cache,
        ):
            assert (module.__doc__ or "").strip(), module.__name__


# A fresh interpreter builds and drains paper Example 2 with ``SystemConfig``
# keywords from argv[2] (after the statement in argv[1]) and prints the
# ``repro`` modules loaded after the config, after the drain, and after
# reading the results, and the dataclasses those modules define after the
# drain.
_RUN = """
import dataclasses, json, sys
from repro import SystemConfig, Update, WarehouseSystem, paper_views_example2, paper_world

def loaded():
    return sorted(m for m in sys.modules if m.startswith("repro"))

def dataclasses_defined():
    return sorted(
        f"{name}.{cls.__qualname__}" for name in loaded()
        for cls in vars(sys.modules[name]).values()
        if isinstance(cls, type) and cls.__module__ == name
        and dataclasses.is_dataclass(cls)
    )

exec(sys.argv[1])
config = eval("SystemConfig(" + sys.argv[2] + ")")
stages = {"config": loaded()}
with WarehouseSystem(paper_world(), paper_views_example2(), config) as system:
    system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
    system.post_update(Update.insert("R", {"A": 1, "B": 2}), at=2.0)
    system.run()
    stages["run"] = loaded()
    stages["dataclasses"] = dataclasses_defined()
    stages["ok"] = system.check_mvc().ok
    stages["reflected"] = system.report().updates_reflected
stages["results"] = loaded()
print(json.dumps(stages))
"""

#: what a default run must not load: each is imported by the branch or
#: method that uses it
OPT_IN = (
    "repro.conformance", "repro.cache", "repro.faults", "repro.obs.export",
    "repro.obs.lineage", "repro.obs.freshness",
    "repro.system.sweeps", "repro.system.report",
    "repro.consistency",
)


def run_fresh(setup: str = "", fields: str = "") -> dict:
    src = Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _RUN, setup, fields],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def opt_in(modules: list[str]) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in OPT_IN)]


@pytest.fixture(scope="module")
def default_run() -> dict:
    return run_fresh()


class TestWhatARunImports:
    def test_default_run_loads_no_opt_in_subsystem(self, default_run):
        assert opt_in(default_run["config"]) == []
        assert opt_in(default_run["run"]) == []
        # results still work: the checker and the report load on first use
        assert default_run["ok"] is True
        assert default_run["reflected"] == 2
        assert {"repro.consistency", "repro.system.report"} <= set(
            default_run["results"])

    def test_only_the_codec_records_are_dataclasses(self, default_run):
        """``@dataclass`` runs ``exec`` over generated source at every
        import; the run path's records are plain slotted classes
        (``repro.record``), and only the records the scenario codec reads
        with ``dataclasses.fields`` stay dataclasses."""
        codec = {
            "repro.system.config.SystemConfig",
            "repro.workloads.generator.WorkloadSpec",
            "repro.sim.scheduler.Perturbation",
        }
        found = set(default_run["dataclasses"])
        assert not found - codec, (
            f"a run-path record became a dataclass: {sorted(found - codec)}")
        assert found == codec

    @pytest.mark.parametrize("setup, fields, module", [
        ("from repro.cache import CacheConfig",
         "cache=CacheConfig()",
         "repro.cache.artifacts"),

        ("from repro.faults import FaultPlan",
         "fault_plan=FaultPlan()",
         "repro.faults.plan"),

        ("from repro.obs import SloPolicy",
         "slo=SloPolicy(max_staleness=1e9)",
         "repro.obs.freshness"),

        ("",
         "freshness_tick=1.0",
         "repro.obs.freshness"),
    ], ids=["cache", "fault_plan", "slo", "freshness_tick"])
    def test_an_opt_in_field_loads_its_module(
        self, default_run, setup, fields, module
    ):
        assert module not in default_run["run"]
        assert module in run_fresh(setup, fields)["run"]

"""API-surface sanity: public exports exist, __all__ is honest, reprs work.

Cheap guards against the failure mode where a refactor silently drops a
public name that examples/benchmarks import.
"""

import importlib

import numpy as np
import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.simmpi",
    "repro.network",
    "repro.hardware",
    "repro.tensor",
    "repro.models",
    "repro.moe",
    "repro.parallel",
    "repro.amp",
    "repro.train",
    "repro.data",
    "repro.perf",
    "repro.plan",
    "repro.resilience",
    "repro.serve",
    "repro.cli",
    "repro.errors",
    "repro.utils",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", []):
        assert hasattr(mod, export), f"{name}.__all__ lists missing {export!r}"


class TestApiFacade:
    def test_facade_is_complete(self):
        """Every promised name resolves and nothing private leaks."""
        import repro.api as api

        assert len(api.__all__) == len(set(api.__all__))
        for name in api.__all__:
            assert not name.startswith("_"), f"private name {name!r} in __all__"
            assert getattr(api, name) is not None

    def test_facade_covers_each_subsystem(self):
        import repro.api as api

        for name in (
            "build_model", "generate", "tiny_config",           # models
            "TrainingRunConfig", "run_distributed_training",    # training
            "ElasticRunConfig", "Supervisor",                   # elastic
            "ServeConfig", "run_serving", "KVCache",            # serving
            "run_spmd", "sunway_network", "sunway_machine",     # substrate
            "LatencyStats", "MetricsLogger",                    # metrics
        ):
            assert name in api.__all__, name

    def test_import_api_is_warning_free(self):
        """Importing the facade raises no DeprecationWarning (CI runs the
        same check as a subprocess with -W error)."""
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-c", "import repro.api"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_facade_objects_are_canonical(self):
        """The facade re-exports, it does not wrap."""
        import repro.api as api
        from repro.models import build_model
        from repro.serve import run_serving

        assert api.build_model is build_model
        assert api.run_serving is run_serving


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_error_hierarchy():
    from repro import errors

    for name in (
        "ConfigError", "CommunicatorError", "DeadlockError", "FaultInjected",
        "TopologyError", "ShapeError", "DtypeError", "OverflowDetected",
        "CheckpointError", "PartitionError", "AutogradError",
    ):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)


class TestReprs:
    def test_tensor_repr(self):
        from repro.tensor import Tensor

        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        t.name = "w"
        r = repr(t)
        assert "shape=(2, 3)" in r and "'w'" in r

    def test_topology_repr(self):
        from repro.network import sunway_topology

        assert "nodes=512" in repr(sunway_topology(512))

    def test_comm_repr(self):
        from repro.simmpi import run_spmd

        res = run_spmd(lambda c: repr(c), 2)
        assert "rank=0/2" in res.returns[0]

    def test_load_stats_str(self):
        from repro.moe import load_stats

        s = str(load_stats(np.array([4, 4])))
        assert "imbalance" in s


class TestKeyAPIsHaveDocstrings:
    @pytest.mark.parametrize(
        "path",
        [
            "repro.simmpi.run_spmd",
            "repro.simmpi.Comm.allreduce",
            "repro.simmpi.Comm.alltoall",
            "repro.simmpi.hierarchical_alltoall",
            "repro.tensor.Tensor.backward",
            "repro.tensor.checkpoint",
            "repro.models.MoELayer",
            "repro.models.generate",
            "repro.parallel.DistributedMoELayer",
            "repro.parallel.MoDaTrainer",
            "repro.parallel.GPipeRunner",
            "repro.parallel.Trainer3D",
            "repro.parallel.ZeroAdamW",
            "repro.parallel.named_optimizer_state",
            "repro.parallel.verify_snapshot",
            "repro.resilience.Supervisor",
            "repro.resilience.Supervisor.run",
            "repro.resilience.ElasticStepDriver",
            "repro.resilience.classify_failure",
            "repro.simmpi.FaultModel",
            "repro.perf.StepModel",
            "repro.perf.calibrate_efficiency",
            "repro.train.Trainer",
            "repro.train.LatencyStats",
            "repro.amp.DynamicLossScaler",
            "repro.serve.KVCache",
            "repro.serve.ContinuousBatchScheduler",
            "repro.serve.run_serving",
            "repro.serve.run_sequential_baseline",
        ],
    )
    def test_docstring_present(self, path):
        mod_name, _, attr_path = path.partition(".")
        obj = importlib.import_module(mod_name)
        for part in path.split(".")[1:]:
            obj = getattr(obj, part)
        assert obj.__doc__ and len(obj.__doc__.strip()) > 20, f"{path} lacks docs"

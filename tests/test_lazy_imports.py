"""Package namespaces resolve lazily (PEP 562) but completely."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.dynpar",
    "repro.functional",
    "repro.gpu",
    "repro.harness",
    "repro.memory",
    "repro.search",
    "repro.service",
    "repro.telemetry",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listing = dir(package)
    assert len(set(package.__all__)) == len(package.__all__)
    for attr in package.__all__:
        assert attr in listing
        value = getattr(package, attr)
        # resolved once: the value now lives in the package's globals
        assert vars(package)[attr] is value


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_and_unknown_names(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")


def test_submodules_stay_importable_through_lazy_packages():
    from repro.harness import execution, runner

    assert execution.kernel_for is importlib.import_module("repro.harness.execution").kernel_for
    assert runner.seed_kernel_cache is execution.seed_kernel_cache


def test_registries_match_their_lazily_imported_classes():
    from repro.dynpar import MODELS
    from repro.harness.registry import LAUNCH_MODELS

    assert LAUNCH_MODELS == tuple(sorted(MODELS))

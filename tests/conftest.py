"""Shared fixtures: the packaged registry and a small synthetic dataset."""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import settings

from rakelgen.domain import default_registry
from rakelgen.synth import default_synth_config, generate_dataset

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fails a test that leaves a child process (a fold worker, say) running."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def ds37(registry):
    """A 37-record synthetic dataset at default expert settings."""
    config = default_synth_config(n_students=37, seed=0)
    return generate_dataset(config, registry)


@pytest.fixture(scope="session")
def ds100(registry):
    """A larger synthetic dataset for prediction-surface checks."""
    config = default_synth_config(n_students=100, seed=7)
    return generate_dataset(config, registry)

"""The benchmark's traced pass wraps lenspp functions by module attribute name
(perfbench/tracing.py).  These tests load that module as it is and check that
every hook point still exists and is the one the code calls, so a rename or
deletion that would break ``perfbench/run.py --trace 1`` fails here too."""

import importlib.util
from pathlib import Path

import pytest

from lenspp import census, classify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_counter_site_resolves(tracing):
    for table in (tracing.SPANS, tracing.COUNTED):
        for name, sites in table.items():
            for owner, attr in sites:
                assert callable(getattr(owner, attr, None)), (name, owner, attr)
    for owner, attr in [(classify, "_canonicalize"), (census, "_canonicalize"), (classify, "_decide")]:
        assert callable(getattr(owner, attr, None)), (owner, attr)


def test_cache_sizes_runs(tracing):
    sizes = tracing.cache_sizes()
    assert set(sizes) >= {"orbits", "substitution_matrix", "transported", "min_fingerprint"}
    assert all(isinstance(v, int) and v >= 0 for v in sizes.values())


def test_traced_census_records_the_gated_counts(tracing):
    """A traced census 3 2 sees every call through the wrapped names: the
    counts perfbench/expected.json gates for its tiny census, and no
    _free_by_planes call, since the scan decides freeness by P^1 masks."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        record = census.run_census(3, 2)
    finally:
        tracer.uninstall()
    times = tracer.layer_times()
    assert times["census.rank2"][0] == 6480
    assert times["census.classify_item"][0] == record.free_count == 1344
    assert record.total_pairs == 6240
    assert times["census.free_by_planes"][0] == 0

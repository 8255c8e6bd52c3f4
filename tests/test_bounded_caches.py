"""Every functools.lru_cache bound as a module attribute of a lenspp module
has a finite maxsize, so no cache grows with the inputs a process sees; and
no other module-level store grows, except the canonical-form store
classify._ORBITS."""

import importlib
import pkgutil

import lenspp
from lenspp import classify, cli
from lenspp.actions import product_of_lens_spaces
from lenspp.census import run_census
from lenspp.classify import homeomorphic, homotopy_equivalent


def _modules():
    for info in pkgutil.iter_modules(lenspp.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        yield importlib.import_module(f"lenspp.{info.name}")


def _module_caches():
    for module in _modules():
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                yield f"{module.__name__}.{attr}", value.cache_parameters()["maxsize"]


def test_every_module_lru_cache_is_bounded():
    caches = dict(_module_caches())
    assert {"lenspp.classify._pencil", "lenspp.classify._transported"} <= caches.keys()
    unbounded = sorted(name for name, maxsize in caches.items() if maxsize is None)
    assert not unbounded


_STORES = (dict, list, set)


def _store_sizes():
    """Entries held by each module-level dict, list or set of lenspp, one
    level of nesting included (classify._ORBITS holds one dict per (p, n)),
    and by the dicts, lists and sets a module-level tuple holds."""
    sizes = {}
    for module in _modules():
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            name = f"{module.__name__}.{attr}"
            if isinstance(value, _STORES):
                values = value.values() if isinstance(value, dict) else value
                nested = sum(len(v) for v in values if isinstance(v, _STORES))
                sizes[name] = len(value) + nested
            elif isinstance(value, tuple) and any(isinstance(v, _STORES) for v in value):
                sizes[name] = sum(len(v) for v in value if isinstance(v, _STORES))
    return sizes


def test_only_the_orbit_store_grows_at_module_level(monkeypatch, capsys):
    """A census, a sampled census and a few comparisons leave every
    module-level store of lenspp at its size, except classify._ORBITS, the
    one store that grows with the classes a process sees (started empty
    here, so its growth shows)."""
    monkeypatch.setattr(classify, "_ORBITS", {})
    before = _store_sizes()
    run_census(3, 2)
    run_census(5, 3, sample=20, seed=0)
    X = product_of_lens_spaces(7, (1, 2), (1, 3))
    for r, rp in (((1, 2), (1, 3)), ((1, 1), (1, 2)), ((2, 3), (1, 6))):
        Y = product_of_lens_spaces(7, r, rp)
        homotopy_equivalent(X, Y)
        homeomorphic(X, Y)
    # L(7;1,2) x L(7;1,3) and L(7;1,1) x L(7;1,2): -6/2 = 4 is a square mod 7
    assert cli.main(["compare", "lens p=7 r=1,2 rp=1,3", "lens p=7 r=1,1 rp=1,2", "--level", "homeo"]) == 0
    capsys.readouterr()
    after = _store_sizes()
    assert before.keys() == after.keys()
    grown = sorted(name for name in after if after[name] != before[name])
    assert grown == ["lenspp.classify._ORBITS"]

"""Every functools.lru_cache bound as a module attribute of a lenspp module
has a finite maxsize, so no cache grows with the inputs a process sees."""

import importlib
import pkgutil

import lenspp


def _module_caches():
    for info in pkgutil.iter_modules(lenspp.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"lenspp.{info.name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                yield f"{module.__name__}.{attr}", value.cache_parameters()["maxsize"]


def test_every_module_lru_cache_is_bounded():
    caches = dict(_module_caches())
    assert {"lenspp.classify._pencil", "lenspp.classify._transported"} <= caches.keys()
    unbounded = sorted(name for name, maxsize in caches.items() if maxsize is None)
    assert not unbounded

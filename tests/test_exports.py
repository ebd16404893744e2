"""Export lists: every module star-imports, and every name in an ``__all__`` exists."""
import importlib
import pkgutil

import pytest

import wachdeform

MODULES = ["wachdeform"] + [
    f"wachdeform.{info.name}" for info in pkgutil.iter_modules(wachdeform.__path__)
]


def test_every_module_is_listed():
    assert set(MODULES) >= {
        "wachdeform", "wachdeform.cli", "wachdeform.deform", "wachdeform.errors",
        "wachdeform.padics", "wachdeform.series", "wachdeform.trianguline",
        "wachdeform.wach",
    }


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)   # a stale name in __all__ raises here
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert namespace[attr] is getattr(module, attr), (name, attr)


def test_package_exports_exactly_the_module_exports():
    union = [
        name
        for sub in ("deform", "errors", "padics", "series", "trianguline", "wach")
        for name in importlib.import_module(f"wachdeform.{sub}").__all__
    ]
    assert len(union) == len(set(union))
    assert sorted(wachdeform.__all__) == sorted(union)

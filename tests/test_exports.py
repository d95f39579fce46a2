"""Every exported name exists, so ``from hopfkit.x import *`` works."""

import importlib
import pkgutil

import hopfkit


def test_all_names_resolve():
    names = ["hopfkit"] + [
        info.name for info in pkgutil.iter_modules(hopfkit.__path__, "hopfkit.")
    ]
    exporting = 0
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        exporting += 1
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert exporting >= 9

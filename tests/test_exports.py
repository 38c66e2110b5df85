import importlib
import pkgutil

import fbmwalk


def test_all_names_resolve():
    # every advertised name exists, in the package and in each submodule
    modules = [fbmwalk] + [
        importlib.import_module(f"fbmwalk.{info.name}") for info in pkgutil.iter_modules(fbmwalk.__path__)
    ]
    for module in modules:
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
        assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ has duplicates"

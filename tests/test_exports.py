import ast
import importlib
import json
import pkgutil
from pathlib import Path

import fbmwalk
from fbmwalk.cli import main


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


def test_benchmark_wrapped_names_and_sidecar_fields(tmp_path):
    # perfbench/layers.py times the program by wrapping these module globals;
    # a name it cannot find reads as a null layer metric.  Its WRAPPED table
    # is read from the source, not imported.
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "layers.py").read_text()
    table = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WRAPPED"
    )
    for module_name, names in ast.literal_eval(table).items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module_name} lacks {missing}"

    # its sidecar check reads these fields of every walk run
    out = tmp_path / "w.csv"
    argv = ["generate", "--hurst", "0.7", "--steps", "64", "--paths", "3", "--workers", "2", "--out", str(out)]
    assert main(argv) == 0
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert isinstance(meta["resample_total"], int)
    assert meta["backend"] == fbmwalk.BACKEND
    assert meta["workers"] == 2

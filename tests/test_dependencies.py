import ast
import sys
from pathlib import Path

import residiff

ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_runtime_imports_are_stdlib_or_numpy():
    # the package's one runtime dependency is numpy
    sources = sorted(Path(residiff.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"


def _imports(tree):
    """Modules a source imports by absolute name."""
    imports = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    return imports | {node.module for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level == 0}


def test_only_the_data_module_reads_and_writes_csv():
    # every table goes through data.py's one reader and one writer
    for path in sorted(Path(residiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert path.name == "data.py" or "csv" not in _imports(tree), path.name


def _calls(tree, name):
    """Calls of ``name``, bare or as a module attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == name
                 or getattr(node.func, "attr", None) == name)]


def test_one_module_builds_each_checkpoint_and_schedule():
    # train_joint and the loader build checkpoints, build_linear_schedule
    # builds schedules, and no module speaks through the warnings machinery
    for path in sorted(Path(residiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert "warnings" not in _imports(tree), path.name
        assert path.name == "trainer.py" or not _calls(tree, "Checkpoint"), path.name
        assert path.name == "schedule.py" or not _calls(tree, "NoiseSchedule"), path.name

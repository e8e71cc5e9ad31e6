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


def test_only_the_data_module_reads_and_writes_csv():
    # every table goes through data.py's one reader and one writer
    for path in sorted(Path(residiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        imports |= {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert path.name == "data.py" or "csv" not in imports, path.name

import ast
import os
import subprocess
import sys

import sievecred


def _modules_after_import(prefix: str) -> str:
    """The sorted modules named `prefix` or below it once a fresh `import sievecred` ran."""
    probe = ("import sys, sievecred\n"
             f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix!r} + '.')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sievecred.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip().splitlines()[-1]


# numpy is the one runtime dependency. Each worker process and each benchmark
# run pays for what `import sievecred` loads: scipy.special alone was over half
# of the import time and memory.
def test_import_loads_no_scipy():
    assert _modules_after_import("scipy") == "[]"


# only a pooled run (threads > 1) uses the process pool, and the multiprocessing
# it pulls in costs 15-22 ms of an import on a 2-core VM
def test_import_loads_no_process_pool():
    assert _modules_after_import("concurrent.futures.process") == "[]"


def _unused_imports(path: str) -> list[str]:
    """The names that the module at `path` imports and never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


# no linter runs in CI, so an import left behind by a deletion would stay;
# `__init__.py` is skipped, as its imports are the public API
def test_no_module_imports_a_name_it_never_reads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    unused = {}
    for folder in (os.path.join(root, "src", "sievecred"), os.path.join(root, "tests")):
        for name in sorted(os.listdir(folder)):
            path = os.path.join(folder, name)
            if name.endswith(".py") and name != "__init__.py" and (names := _unused_imports(path)):
                unused[os.path.relpath(path, root)] = names
    assert unused == {}

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

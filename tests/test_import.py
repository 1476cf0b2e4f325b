import os
import subprocess
import sys

import sievecred


# numpy is the one runtime dependency. Each worker process and each benchmark
# run pays for what `import sievecred` loads: scipy.special alone was over half
# of the import time and memory.
def test_import_loads_no_scipy():
    probe = ("import sys, sievecred\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sievecred.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"

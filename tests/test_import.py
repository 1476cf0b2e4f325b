import json
import os
import subprocess
import sys

import sievecred

# What a fresh `import sievecred` may load of scipy. Each worker process and
# each benchmark run pays for what it loads: scipy.stats alone takes about
# half a second, several times the rest of the import.
ALLOWED_SCIPY = {"scipy.special"}


def test_import_loads_only_the_allowed_scipy_packages():
    probe = (
        "import json, sys\n"
        "import sievecred\n"
        "names = {'.'.join(m.split('.')[:2]) for m in sys.modules if m.startswith('scipy.')}\n"
        "print(json.dumps(sorted(m for m in names if not m.split('.')[1].startswith('_')\n"
        "                        and hasattr(sys.modules[m], '__path__'))))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sievecred.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(json.loads(out.strip().splitlines()[-1]))
    assert loaded <= ALLOWED_SCIPY, sorted(loaded - ALLOWED_SCIPY)

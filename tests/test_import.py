import subprocess
import sys
from pathlib import Path

import discinfo


def test_import_loads_no_scipy():
    """scipy is a test-only dependency (an oracle); the package must not load it."""
    src = str(Path(discinfo.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import discinfo; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == "[]"

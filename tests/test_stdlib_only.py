"""The package and its CLI import nothing outside the standard library."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import psipascal, psipascal.cli
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_imports_are_stdlib_only():
    # -I -S: no user site, no site-packages, no PYTHON* environment variables
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert "psipascal" in loaded
    outside = loaded - set(sys.stdlib_module_names) - {"psipascal", "__main__"}
    assert not outside, sorted(outside)

import subprocess
import sys
from pathlib import Path

import ire


def test_formats_needs_only_the_standard_library():
    # loaded by path, so that the package's __init__, which imports the
    # numpy modules, does not run
    path = Path(ire.__file__).with_name("formats.py")
    code = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("formats", {str(path)!r})
formats = importlib.util.module_from_spec(spec)
spec.loader.exec_module(formats)
assert formats.RULES == ("A", "B"), formats.RULES
print(sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "ire")))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

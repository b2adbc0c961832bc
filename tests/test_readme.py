"""The README's library quick start runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_exits_zero(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "the README has no python block"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for code in blocks:
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]

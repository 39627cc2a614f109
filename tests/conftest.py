import os
import resource
import subprocess
import sys
from pathlib import Path

import ctruth

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent.parent / "fixtures"

CAP_BYTES = 1 << 30  # address space of a capped run


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def run_capped(code, *args, timeout=10):
    """Run the Python source code with args in a fresh interpreter, under
    1 GB of address space and a timeout: a defect that grows memory with
    a literal's value ends there in a MemoryError, or TimeoutExpired."""
    src = str(Path(ctruth.__file__).parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        timeout=timeout, preexec_fn=_cap, env={**os.environ, "PYTHONPATH": src},
    )

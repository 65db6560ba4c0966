"""The model zoo lives in ``repro.core.zoo`` because it builds core
regressors.  Importing the eval layer must therefore not drag in the
core layer; troutlint's IMP001 checks each module's own imports, and
this test checks the whole import closure of ``repro.eval``."""

from __future__ import annotations

import subprocess
import sys


def test_importing_eval_does_not_import_core():
    code = (
        "import sys\n"
        "import repro.eval\n"
        "core = [m for m in sys.modules if m.startswith('repro.core')]\n"
        "assert not core, f'eval import pulled in {core}'\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=120
    )

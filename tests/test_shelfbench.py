"""The benchmark's own self-test runs against this source tree and passes.

``shelfbench/run.py --self-test`` plans and validates one small scene while
every traced function is wrapped, and fails when one of them is never called
(for instance ``motion.collision_objs``, which only ``validate_plan`` reaches
once the planner answers collision questions from its occlusion table) or a
wrapper is left behind.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "shelfbench" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "every traced function was called" in result.stdout + result.stderr

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
REPO = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(REPO / "src")]

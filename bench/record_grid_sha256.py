"""Record the SHA-256 of the cps-ablation grid CSV for sim seeds 0..N-1.

Run from the repository root, at a commit whose simulator output is
trusted, only when the simulator's documented output is meant to change:

    python3 bench/record_grid_sha256.py 24
"""

import hashlib
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import GRID_SHA256, grid_csv  # noqa: E402

if __name__ == "__main__":
    count = int(sys.argv[1])
    table = {str(s): hashlib.sha256(grid_csv(s).encode()).hexdigest() for s in range(count)}
    GRID_SHA256.write_text(json.dumps(table, indent=1) + "\n")

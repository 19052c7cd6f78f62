"""Write reference/cat_partition.json, the symbolic workload's reference.

    python3 perfbench/make_reference.py

Holds the Markov partition catflux builds, its transition matrix and
mixing time.  The symbolic workload checks its own build against it, and
the coder guard of the other workloads loads it instead of building.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from catflux import build_cat_partition, partition_to_json, transition_matrix  # noqa: E402


def main() -> None:
    part = build_cat_partition()
    tm = transition_matrix(part)
    reference = {
        "rectangles": len(part),
        "mixing_time": tm.mixing_time,
        "transition_matrix": tm.T.tolist(),
        "partition": json.loads(partition_to_json(part)),
    }
    path = HERE / "reference" / "cat_partition.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

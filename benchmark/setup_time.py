"""Key set-up timed in a fresh process, as a user who runs keygen would see it.

    python3 benchmark/setup_time.py SEED FIRST COUNT

generates, serializes and parses COUNT default keysets, drawn from reps
FIRST .. FIRST+COUNT-1 of SEED, and prints the seconds each took as one
JSON list. run.py starts it several times over a timed pass: a process
that has already run a workload reuses freed heap memory for some reps
and faults in fresh pages for others, which would make set-up time a
matter of heap history rather than of the program.
"""

import json
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ire import keymat  # noqa: E402


def setup_once(seed: int, rep: int) -> float:
    rng = random.Random(f"ire-bench/{seed}/setup/{rep}")
    start = perf_counter()
    keymat.parse_keyset(keymat.serialize_keyset(keymat.generate_keyset(rng)))
    return perf_counter() - start


if __name__ == "__main__":
    seed, first, count = map(int, sys.argv[1:4])
    print(json.dumps([setup_once(seed, rep) for rep in range(first, first + count)]))

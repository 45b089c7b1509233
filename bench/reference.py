"""Rewrite reference.json, the stored table of |S_n| for n = 1..9.

The sizes are computed with the benchmark's own good-sequence test
(gen.good_sequences), not with the program.  Run from the repository
root:  python3 bench/reference.py
"""
import json
from pathlib import Path

import gen

MAX_N = 9


def main() -> None:
    table = {"sn_size": {str(n): len(gen.good_sequences(n))
                         for n in range(1, MAX_N + 1)}}
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(table, indent=2) + "\n")
    print(path.read_text(), end="")


if __name__ == "__main__":
    main()

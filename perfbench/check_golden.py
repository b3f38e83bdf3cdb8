#!/usr/bin/env python3
"""Cross-checks the benchmark's committed golden fingerprints.

    python3 perfbench/check_golden.py

Run from the root of a checkout. perfbench/golden_sf0.2_seed19940401.txt
holds the ExactFingerprint of each TPC-H result at SF 0.2 on dbgen's
default seed, which runs at the default seed check every result
against. BENCH_table11.json records the same 22 fingerprints from the
table-11 bench on the same data; this script exits 1 unless the two
agree on every query.
"""

import json
import os
import sys

GOLDEN = os.path.join("perfbench", "golden_sf0.2_seed19940401.txt")


def main():
    golden = {}
    with open(GOLDEN) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                query, fingerprint = line.split()
                golden[int(query)] = fingerprint
    with open("BENCH_table11.json") as f:
        table11 = {row["query"]: row["fingerprint"]
                   for row in json.load(f)["rows"] if "fingerprint" in row}
    bad = [q for q in range(1, 23) if golden.get(q) != table11.get(q)]
    for q in bad:
        print(f"Q{q}: golden {golden.get(q)} table11 {table11.get(q)}")
    print(f"{22 - len(bad)}/22 fingerprints agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

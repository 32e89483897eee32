#!/usr/bin/env python3
"""Pins result fingerprints per (workload, seed) in perfbench/pins.json.

    python3 perfbench/pins.py --first 0 --last 15

Runs each fingerprinted workload (sweep-sqrt, survey-stream, gauntlet)
once per seed without a pin, so the runner computes its reference on a
1-lane pool and checks every 4-lane repetition against it, and records
that reference. A seed whose run has any failed check is not pinned.
Re-pin only when a change to the program's results is intended; the
benchmark then checks every run of a pinned seed against the pin.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

FINGERPRINTED = ("sweep-sqrt", "survey-stream", "gauntlet")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=15)
    args = parser.parse_args()

    binary = run.build()
    tmp = os.path.join(run.BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    path = os.path.join(HERE, "pins.json")
    with open(path) as f:
        pins = json.load(f)
    for workload in FINGERPRINTED:
        for seed in range(args.first, args.last + 1):
            out = os.path.join(tmp, f"pin-{workload}-{seed}.json")
            subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                            "--seconds", "0.001", "--trace", "0", "--out", out,
                            "--tmp", tmp], check=True, timeout=run.RUN_TIMEOUT_S)
            with open(out) as f:
                raw = json.load(f)
            os.remove(out)
            if raw["checks"]["failed"] != 0:
                print(f"{workload} seed {seed}: failed checks, not pinned",
                      file=sys.stderr)
                continue
            pins.setdefault(workload, {})[str(seed)] = raw["run"]["fingerprint"]
            print(f"{workload} seed {seed}: {raw['run']['fingerprint']}")
    with open(path, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Statistics, metric assembly and run identity for the repository benchmark.

The C++ runner (perfbench/cpp) measures a workload and writes a raw record;
this module turns that record into the benchmark's metrics and stamps it
with the identity of the build and run that produced it.

It is also a small command-line tool:

    python3 perfbench/harness.py compare OLD.json NEW.json

compares two result files written by perfbench/run.py, metric by metric,
and refuses (exit status 3) when their identities differ in anything but
the code version (git SHA, dirty flag, source hash).
"""

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

# Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
# A tail percentile is reported only with at least this many samples
# beyond it.
TAIL_MIN_BEYOND = 10

# Identity keys that name the code version; two results that differ only
# in these are comparable (that is the point of comparing them).
CODE_KEYS = ("git_sha", "dirty", "source_hash")


class IncomparableError(ValueError):
    """Two results whose identities differ in more than the code version."""


def median(xs):
    if not xs:
        raise ValueError("median of an empty sample")
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        raise ValueError("quartiles need at least two samples")
    return tuple(statistics.quantiles(xs, n=4))


def lower_decile(xs):
    """The 10th percentile, as statistics.quantiles(xs, n=10) gives it."""
    if len(xs) < 2:
        raise ValueError("a decile needs at least two samples")
    return statistics.quantiles(xs, n=10)[0]


def tail_percentile(xs):
    """The highest percentile of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND samples beyond it, as (percentile, value), using the
    nearest-rank definition; None when the sample is too small for any."""
    n = len(xs)
    ordered = sorted(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p * n / 100.0, 9))  # 1-based nearest rank
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def failure_counts(checks):
    """(attempted, failed) of a completed run. A run with no attempted check
    verified nothing and counts as one failed check."""
    attempted = int(checks["attempted"])
    failed = int(checks["failed"])
    if failed < 0 or failed > attempted:
        raise ValueError(f"inconsistent check counts {checks!r}")
    if attempted == 0:
        return 1, 1
    return attempted, failed


def end_to_end_metrics(raw):
    """The end-to-end metrics of an untraced raw record.

    Repetition time is taken at the lower decile, not the median: on a
    shared machine other tenants stall whole stretches of a run (steal and
    contention only ever slow a repetition down), and the lower decile
    tracks the program's own speed through those stretches. The median and
    the tail stay in the result file's timing summary. When the record
    times a repetition's parts (`part_s`), the repetition time is the sum
    of each part's lower decile: a stall then spoils one part's sample, not
    the whole repetition's."""
    parts = raw.get("part_s") or []
    if parts:
        rep = sum(lower_decile(p) for p in parts)
    else:
        rep = lower_decile(raw["rep_s"])
    ratios = [m / p for m, p in zip(raw["monitored_s"], raw["plain_s"])]
    return {
        "setup_s": (median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "throughput_per_s": (raw["items_per_rep"] / rep, "1/s"),
        "rep_wall_ms": (1e3 * rep, "ms"),
        "monitor_overhead_x": (median(ratios), "ratio"),
    }


def per_layer_metrics(raw):
    """The per-layer metrics of a traced raw record, with their kinds."""
    return {l["name"]: (l["value"], l["unit"], l["kind"]) for l in raw["layers"]}


def timing_summary(xs):
    """Median, quartiles, tail percentile and sample count of a timing."""
    out = {"samples": len(xs), "median": median(xs) if xs else None}
    if len(xs) >= 2:
        out["q1"], _, out["q3"] = quartiles(xs)
    tail = tail_percentile(xs)
    if tail is not None:
        out["tail_percentile"], out["tail"] = tail
    return out


def source_hash(root, dirs=("src", "perfbench")):
    """SHA-256 over the contents of every file under `dirs`, in path order:
    the code version when the checkout is not a git repository."""
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(root, d)):
            subdirs[:] = sorted(s for s in subdirs if s != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_state(root):
    """(sha, dirty) when `root` is a git checkout, else (None, None)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", root, "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def identity(raw, root):
    """The run identity: code version, build, machine and run settings."""
    sha, dirty = git_state(root)
    ident = {"git_sha": sha, "dirty": dirty, "source_hash": source_hash(root)}
    ident.update({f"build.{k}": v for k, v in raw["build"].items()})
    ident.update({f"machine.{k}": v for k, v in raw["machine"].items()})
    ident.update({f"run.{k}": v for k, v in raw["run"].items()
                  if k != "fingerprint"})
    ident["run.trace"] = raw["trace"]
    return ident


def identity_differences(a, b):
    """Identity keys, other than the code version, on which a and b differ."""
    keys = (set(a) | set(b)) - set(CODE_KEYS)
    return sorted(k for k in keys if a.get(k) != b.get(k))


def compare(old, new):
    """Per-metric (old, new, change) of two results; raises
    IncomparableError when their identities differ beyond the code version."""
    diffs = identity_differences(old["identity"], new["identity"])
    if diffs:
        detail = ", ".join(f"{k}: {old['identity'].get(k)!r} vs "
                           f"{new['identity'].get(k)!r}" for k in diffs)
        raise IncomparableError(f"results are not comparable ({detail})")
    rows = {}
    for name, m in old["metrics"].items():
        if name in new["metrics"]:
            a, b = m["value"], new["metrics"][name]["value"]
            rows[name] = (a, b, (b - a) / a if a else math.nan)
    return rows


def main(argv):
    if len(argv) != 4 or argv[1] != "compare":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[2]) as f:
        old = json.load(f)
    with open(argv[3]) as f:
        new = json.load(f)
    try:
        rows = compare(old, new)
    except IncomparableError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    for name, (a, b, change) in sorted(rows.items()):
        print(f"{name:48s} {a:14.6g} {b:14.6g} {100 * change:+8.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Checks zombie_cli's run behaviour against digests pinned in the repo.

Runs five `zombie_cli run` invocations (plain, --prune=conservative,
streaming, and the uncertainty and blend rewards, which read the learner's
pre-update probability) and a `zombie_cli session --warm` pair over one feature
store (a cold run that populates it, then a replay that reads every
record back), and compares the sha256 of each RunResult fingerprint file,
session summary and DecisionLog with tools/pinned_digests.txt.
The CI SIMD job runs it once per forced ISA level (ZOMBIE_SIMD_LEVEL), so
the outputs are pinned across levels and across commits. On a mismatch it prints the
differing files and paste-ready replacement lines: replace them only for a
deliberate behaviour change, and say so in CHANGES.md. With --out-dir the
outputs are kept there; otherwise they go to a temporary directory.

    python3 tools/check_pinned_digests.py --cli build/tools/zombie_cli
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "pinned_digests.txt")
COMMON = ["run", "--task=webcat", "--docs=1500", "--trials=2"]
# name prefix -> extra flags; each run writes <prefix>fingerprint.txt and
# <prefix>decisions.jsonl.
RUNS = {
    "": ["--max_items=400"],
    "prune_": ["--max_items=400", "--prune=conservative"],
    "stream_": ["--max_items=900", "--stream=0.33", "--ingest-rate=100"],
    # The two rewards that read the learner's pre-update probability: one
    # policy whose arm scores change on every pull, one whose repeat.
    "thompson_uncertainty_": ["--max_items=400", "--policy=thompson",
                              "--reward=uncertainty"],
    "ucb1_blend_": ["--max_items=400", "--policy=ucb1", "--reward=blend"],
}
# The session pair runs k-means grouping over whole sessions, holdout
# scoring at every revision's feature width, and (on the replay) the
# store's record CRC on every hit. Each writes <prefix>summary.txt (its
# stdout) and <prefix>decisions.jsonl.
SESSION = ["session", "--task=webcat", "--docs=1500", "--warm"]
SESSION_RUNS = ["session_cold_", "session_replay_"]
TIMEOUT_S = 30


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_all(cli, out_dir):
    """Runs every RUNS entry into out_dir; returns {file name: sha256}, or
    None when a run fails."""
    actual = {}
    for prefix, extra in RUNS.items():
        fingerprint = prefix + "fingerprint.txt"
        decisions = prefix + "decisions.jsonl"
        cmd = [cli] + COMMON + extra + [
            "--fingerprint-out=" + os.path.join(out_dir, fingerprint),
            "--decisions-out=" + os.path.join(out_dir, decisions)]
        proc = subprocess.run(cmd, capture_output=True, timeout=TIMEOUT_S)
        if proc.returncode != 0:
            print("FAIL: %s exited %d: %s" %
                  (" ".join(cmd), proc.returncode,
                   proc.stderr.decode(errors="replace").strip()))
            return None
        for name in (fingerprint, decisions):
            actual[name] = sha256(os.path.join(out_dir, name))
    store = os.path.join(out_dir, "session.store")
    if os.path.exists(store):
        os.remove(store)  # the first session run must start cold
    for prefix in SESSION_RUNS:
        summary = prefix + "summary.txt"
        decisions = prefix + "decisions.jsonl"
        cmd = [cli] + SESSION + [
            "--store-path=" + store,
            "--decisions-out=" + os.path.join(out_dir, decisions)]
        proc = subprocess.run(cmd, capture_output=True, timeout=TIMEOUT_S)
        if proc.returncode != 0:
            print("FAIL: %s exited %d: %s" %
                  (" ".join(cmd), proc.returncode,
                   proc.stderr.decode(errors="replace").strip()))
            return None
        # Drop the line naming the output path; the rest is the summary.
        lines = proc.stdout.decode().splitlines(keepends=True)
        with open(os.path.join(out_dir, summary), "w") as f:
            f.writelines(line for line in lines
                         if not line.startswith("decision log written"))
        for name in (summary, decisions):
            actual[name] = sha256(os.path.join(out_dir, name))
    return actual


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", required=True, help="zombie_cli binary")
    parser.add_argument("--out-dir", help="keep the outputs in this directory")
    args = parser.parse_args()
    cli = os.path.abspath(args.cli)

    with open(DIGESTS) as f:
        pinned = dict(reversed(line.split()) for line in f
                      if line.strip() and not line.startswith("#"))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        actual = run_all(cli, args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="zombie-pinned-") as tmp:
            actual = run_all(cli, tmp)
    if actual is None:
        return 1

    mismatched = sorted(name for name in actual
                        if pinned.get(name) != actual[name])
    stale = sorted(set(pinned) - set(actual))
    for name in mismatched:
        print("FAIL: %s sha256 %s, pinned %s" %
              (name, actual[name], pinned.get(name, "(none)")))
    for name in stale:
        print("FAIL: %s is pinned but no run writes it" % name)
    if mismatched or stale:
        print("replacement lines for %s:" % os.path.basename(DIGESTS))
        for name in sorted(actual):
            print("%s  %s" % (actual[name], name))
        return 1
    print("%d outputs match their pinned digests" % len(actual))
    return 0


if __name__ == "__main__":
    sys.exit(main())

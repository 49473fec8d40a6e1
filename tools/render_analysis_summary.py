#!/usr/bin/env python3
"""Render static-analysis logs into a GitHub step-summary markdown report.

CI's static-analysis job captures the raw output of its three analyzers —
the clang -Wthread-safety build, zombie_lint, and clang-tidy — into log
files, then feeds them here:

    python3 tools/render_analysis_summary.py \
        --thread-safety-log logs/build.log \
        --zombie-lint-log logs/zombie_lint.log \
        --clang-tidy-log logs/clang_tidy.log >> "$GITHUB_STEP_SUMMARY"

The script only *renders*; it always exits 0 (a missing or unparseable log
renders as "not run"). Pass/fail is decided by the steps that produced the
logs — a summary formatter must never mask or duplicate their verdicts.

Stdlib only (CI runners have no extra packages).
"""

import argparse
import os
import re
import sys

# Findings shown in full per analyzer; the rest are folded into a count so
# a pathological run cannot blow past GitHub's 1 MiB step-summary cap.
MAX_ROWS = 50

# clang diagnostic carrying a thread-safety flag, e.g.
#   src/obs/metrics.cc:41:3: error: reading variable 'counters_' requires
#   holding mutex 'mu_' [-Werror,-Wthread-safety-analysis]
THREAD_SAFETY_RE = re.compile(
    r"^(?P<loc>[^:\s][^:]*:\d+(?::\d+)?): (?:warning|error): "
    r"(?P<msg>.*\[-W(?:error,-W)?thread-safety[^\]]*\])\s*$")

# zombie_lint finding:  src/core/engine.cc:12: [no-throw] message
ZOMBIE_LINT_RE = re.compile(
    r"^(?P<loc>[^:\s][^:]*:\d+): \[(?P<rule>[a-z0-9-]+)\] (?P<msg>.*)$")

# clang-tidy finding:  src/ml/naive_bayes.cc:10:5: warning: msg [check-name]
CLANG_TIDY_RE = re.compile(
    r"^(?P<loc>[^:\s][^:]*:\d+:\d+): (?:warning|error): "
    r"(?P<msg>.*?)\s*\[(?P<check>[a-z0-9.,-]+)\]$")


def read_log(path):
    """Returns the log's lines, or None when the log was never produced."""
    if path is None or not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def parse(lines, regex):
    if lines is None:
        return None
    findings = []
    for line in lines:
        m = regex.match(line.strip())
        if m:
            findings.append(m.groupdict())
    return findings


def md_escape(text):
    return text.replace("|", "\\|").replace("\n", " ")


def render_section(out, title, findings, columns):
    """One analyzer's findings as a collapsible markdown table."""
    if findings is None:
        out.append(f"### {title}\n\n_not run (no log produced)_\n")
        return
    if not findings:
        out.append(f"### {title}\n\n:white_check_mark: clean\n")
        return
    shown = findings[:MAX_ROWS]
    out.append(f"### {title}\n")
    out.append(f"<details><summary>{len(findings)} finding(s)</summary>\n")
    out.append("| " + " | ".join(name for name, _ in columns) + " |")
    out.append("|" + "---|" * len(columns))
    for f in shown:
        cells = (md_escape(f.get(key, "")) for _, key in columns)
        out.append("| " + " | ".join("`" + c + "`" if i == 0 else c
                                     for i, c in enumerate(cells)) + " |")
    if len(findings) > MAX_ROWS:
        out.append(f"\n_... and {len(findings) - MAX_ROWS} more "
                   f"(see the job log)_")
    out.append("\n</details>\n")


def status_cell(findings):
    if findings is None:
        return "not run"
    if not findings:
        return ":white_check_mark: clean"
    return f":x: {len(findings)} finding(s)"


def main():
    ap = argparse.ArgumentParser(
        description="Render analyzer logs as step-summary markdown.")
    ap.add_argument("--thread-safety-log",
                    help="clang -Wthread-safety build log")
    ap.add_argument("--zombie-lint-log", help="zombie_lint output")
    ap.add_argument("--clang-tidy-log", help="run_clang_tidy.sh output")
    args = ap.parse_args()

    tsa = parse(read_log(args.thread_safety_log), THREAD_SAFETY_RE)
    lint = parse(read_log(args.zombie_lint_log), ZOMBIE_LINT_RE)
    tidy = parse(read_log(args.clang_tidy_log), CLANG_TIDY_RE)

    out = ["## Static analysis\n"]
    out.append("| analyzer | result |")
    out.append("|---|---|")
    out.append(f"| clang `-Wthread-safety` | {status_cell(tsa)} |")
    out.append(f"| `zombie_lint` | {status_cell(lint)} |")
    out.append(f"| clang-tidy | {status_cell(tidy)} |")
    out.append("")

    render_section(out, "Thread-safety analysis", tsa,
                   [("location", "loc"), ("diagnostic", "msg")])
    render_section(out, "zombie_lint", lint,
                   [("location", "loc"), ("rule", "rule"),
                    ("message", "msg")])
    render_section(out, "clang-tidy", tidy,
                   [("location", "loc"), ("check", "check"),
                    ("message", "msg")])

    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

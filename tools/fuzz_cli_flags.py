#!/usr/bin/env python3
"""Seeded fuzz of zombie_cli's flag set.

Runs a few hundred random invocations of `generate`, `inspect`, `run` and
`session` and checks that each one either succeeds (exit 0) or rejects
its input cleanly (exit 1 with a message on stderr). An abort (exit 134),
a death by signal, any other exit code or a timeout fails the fuzz, and
the offending command line is printed so it can be replayed by hand.
A case whose every key and value is valid must exit 0: so a flag the CLI
no longer reads, or a value it no longer takes, fails the fuzz instead of
passing as a clean rejection.

Most cases carry exactly one bad input inside an otherwise valid, randomly
ordered flag set, so the bad input travels as deep as the CLI lets it: a
malformed or boundary value of one flag (every command, every flag, every
listed value once), an unknown key, a key another command reads, or a
damaged corpus file. Each flag of each command also appears once in a
case that is valid throughout. Malformed command lines follow: a
positional argument among valid flags, an unknown subcommand, and none at
all. Then come random mixes of several flags: about half of them all
valid, the rest with bad values or keys mixed in.

Every invocation stays small: a command that generates its corpus gets
--docs <= 300 (or a --docs value the CLI must reject up front), and a
command that reads one reads a 200-document file, a missing one or a
damaged one.

    python3 tools/fuzz_cli_flags.py --cli build/tools/zombie_cli --seed 1
"""

import argparse
import concurrent.futures
import os
import random
import shlex
import subprocess
import sys
import tempfile

MALFORMED_INT = ["", "abc", "12x", "3.5"]
MALFORMED_REAL = ["", "nan", "1e999", "0.5x"]
BAD_ENUM = ["", "bogus", "KMEANS", "nb "]
BOOL_VALUES = [None, "true", "false", "0", "1", "yes", ""]
INT64_MAX = "9223372036854775807"

RANDOM_CASES = 20  # random mixes, after the cases listed one by one
TIMEOUT_S = 20  # per invocation
JOBS = 2  # invocations run at once


def small_docs(rng):
    # A quarter of the corpora are tiny: the edge cases of every layer.
    return str(rng.randint(1, 8) if rng.random() < 0.25 else
               rng.randint(9, 300))


class Flag:
    """One flag: how to draw a valid value, and the values to try that
    are malformed, out of range or at the edge of the range."""

    def __init__(self, valid, bad=()):
        self.valid = valid
        self.bad = list(bad)


def flag_table(tmp, good_corpus, bad_corpora):
    def choice(values):
        return lambda rng: rng.choice(values)

    def int_range(lo, hi):
        return lambda rng: str(rng.randint(lo, hi))

    def real_range(lo, hi):
        return lambda rng: repr(rng.uniform(lo, hi))

    def out_path(name):
        return lambda rng: os.path.join(tmp, "%d-%s" % (rng.randint(0, 9),
                                                        name))

    def seed_flag():
        return Flag(int_range(0, 50),
                    MALFORMED_INT + ["-1", "0", INT64_MAX,
                                     "9223372036854775808"])

    unwritable = ["/nonexistent-dir/out", ""]
    return {
        "task": Flag(choice(["webcat", "entity", "balanced"]), BAD_ENUM),
        "docs": Flag(small_docs, MALFORMED_INT + ["0", "-5", "1", "2",
                                                  "10000001"]),
        "seed": seed_flag(),
        "corpus": Flag(choice([good_corpus]), bad_corpora),
        "out": Flag(out_path("c.zmbc"), unwritable),
        "grouper": Flag(choice(["kmeans", "random", "metadata", "token",
                                "oracle"]), BAD_ENUM),
        "groups": Flag(int_range(1, 40),
                       MALFORMED_INT + ["0", "1", "512", "513"]),
        "grouper_seed": seed_flag(),
        "seed_terms": Flag(choice(["topic0_w0,topic0_w1", "topic0_w3"]),
                           ["", ",", "nosuchterm", "topic0_w0,,x"]),
        "policy": Flag(choice(["roundrobin", "random", "egreedy", "ucb1",
                               "swucb", "thompson", "exp3", "softmax"]),
                       BAD_ENUM + ["egreedy(0.10)"]),
        "reward": Flag(choice(["label", "uncertainty", "misclassify",
                               "improvement", "blend", "balance", "zero"]),
                       BAD_ENUM),
        "learner": Flag(choice(["nb", "logreg", "adagrad", "perceptron",
                                "svm"]), BAD_ENUM + ["knn"]),
        "run_seed": seed_flag(),
        "holdout": Flag(int_range(50, 500),
                        MALFORMED_INT + ["0", "1", "49", "50", "10000001"]),
        "eval_every": Flag(int_range(1, 60),
                           MALFORMED_INT + ["0", "1", "10000000"]),
        "max_items": Flag(int_range(1, 400),
                          MALFORMED_INT + ["0", "-1", "1", INT64_MAX]),
        "tune_threshold": Flag(choice(BOOL_VALUES)),
        "prune": Flag(choice(["off", "conservative", "aggressive"]),
                      BAD_ENUM + ["conservatve"]),
        "baseline": Flag(choice(BOOL_VALUES)),
        "cache": Flag(choice(BOOL_VALUES)),
        "trials": Flag(int_range(1, 3), MALFORMED_INT + ["0", "-1", "10001"]),
        "threads": Flag(int_range(0, 2), MALFORMED_INT + ["-1", "257"]),
        "csv": Flag(out_path("curve.csv"), unwritable),
        "fingerprint-out": Flag(out_path("fp.txt"), unwritable),
        "store-path": Flag(out_path("feat.zfs"), unwritable),
        "store-gc": Flag(choice(BOOL_VALUES)),
        "stream": Flag(real_range(0.05, 0.9),
                       MALFORMED_REAL + ["-0.1", "0", "1e-9", "0.999999",
                                         "1", "2"]),
        "ingest-rate": Flag(real_range(0.01, 1e4),
                            MALFORMED_REAL + ["0", "0.000999", "0.001",
                                              "1e9", "1e10"]),
        "stream-order": Flag(choice(["corpus", "shuffled", "domain"]),
                             BAD_ENUM),
        "stream-seed": seed_flag(),
        "trace-out": Flag(out_path("trace.json"), unwritable),
        "metrics-out": Flag(out_path("metrics.json"), unwritable),
        "decisions-out": Flag(out_path("decisions.jsonl"), unwritable),
        "warm": Flag(choice(BOOL_VALUES)),
    }


# The flags each command reads; any other key must be rejected.
COMMAND_FLAGS = {
    "generate": ["task", "docs", "seed", "out"],
    "inspect": ["corpus", "task", "docs", "seed"],
    "run": ["corpus", "task", "docs", "seed", "grouper", "groups",
            "grouper_seed", "seed_terms", "policy", "reward", "learner",
            "run_seed", "holdout", "eval_every", "max_items",
            "tune_threshold", "prune", "baseline", "cache", "trials",
            "threads", "csv", "fingerprint-out", "store-path", "store-gc",
            "stream", "ingest-rate", "stream-order", "stream-seed",
            "trace-out", "metrics-out", "decisions-out"],
    "session": ["corpus", "task", "docs", "seed", "run_seed", "holdout",
                "eval_every", "max_items", "tune_threshold", "prune", "warm",
                "cache", "groups", "store-path", "trace-out", "metrics-out",
                "decisions-out"],
}

BOGUS_KEYS = ["bogus", "doc", "Docs", "", "-", "prefetch-threads",
              "holdout_positive_fraction", "epsilon", "metric", "signed_hash"]
# Arguments that are not --key[=value] flags, and names that are not
# subcommands.
POSITIONALS = ["foo", "-", "-x", "docs=10", "", "run", "5"]
BOGUS_COMMANDS = ["bogus", "", "RUN", "help", "--docs=10", "-h", "simd"]


def valid_flags(rng, table, cmd, count):
    keys = rng.sample(COMMAND_FLAGS[cmd], min(count, len(COMMAND_FLAGS[cmd])))
    return [(key, table[key].valid(rng)) for key in keys]


def reads_all(cmd, given):
    """Whether `cmd` reads every flag in `given`: a few flags are read only
    alongside others, and the CLI rejects the rest as unknown."""
    if given.get("corpus"):
        unread = ["docs", "seed"] + ([] if cmd == "run" else ["task"])
        if any(key in given for key in unread):
            return False
    grouper = given.get("grouper", "kmeans")
    if "seed_terms" in given and grouper != "token":
        return False
    # --stream needs a grouper with a streaming variant.
    return "stream" not in given or grouper in ("kmeans", "metadata", "token")


def finish(rng, table, cmd, flags, valid):
    """Shuffles the flags and keeps the case small. The last occurrence of
    a key wins, so a case that generates its corpus (no --corpus, or an
    empty one) ends with a --docs the CLI either rejects up front or caps
    at 300 documents. Returns (args, valid): `valid` says every key and
    value was drawn valid, so the CLI must accept the case."""
    rng.shuffle(flags)
    given = dict(flags)
    generates = cmd == "generate" or not given.get("corpus")
    docs = given.get("docs")
    small = docs is not None and (docs in table["docs"].bad or
                                  (docs.isdigit() and int(docs) <= 300))
    if generates and not small:
        flags.append(("docs", small_docs(rng)))
    valid = valid and reads_all(cmd, dict(flags))
    args = [cmd]
    for key, value in flags:
        args.append("--" + key if value is None else "--%s=%s" % (key, value))
    return args, valid


def single_mutation_cases(rng, table):
    """Every listed bad value of every flag of every command, once, inside
    a random valid context; plus unknown and foreign keys per command."""
    cases = []
    for cmd, keys in COMMAND_FLAGS.items():
        for key in keys:
            for bad in table[key].bad:
                flags = [(k, v) for k, v in
                         valid_flags(rng, table, cmd, rng.randint(0, 5))
                         if k != key]
                flags.append((key, bad))
                cases.append(finish(rng, table, cmd, flags, False))
        foreign = rng.choice([k for k in table if k not in keys])
        for key in BOGUS_KEYS[:3] + [foreign]:
            flags = valid_flags(rng, table, cmd, rng.randint(0, 5))
            flags.append((key, table[key].valid(rng) if key in table else
                          str(rng.randint(0, 3))))
            cases.append(finish(rng, table, cmd, flags, False))
    return cases


def all_valid_cases(rng, table):
    """Every flag of every command, once, with a valid value inside a
    random valid context that the command reads in full."""
    cases = []
    for cmd, keys in COMMAND_FLAGS.items():
        for key in keys:
            # --seed_terms is read only by the token grouper.
            extra = [("grouper", "token")] if key == "seed_terms" else []
            skip = [key] + [k for k, _ in extra]
            while True:
                flags = [(k, v) for k, v in
                         valid_flags(rng, table, cmd, rng.randint(0, 5))
                         if k not in skip]
                flags += [(key, table[key].valid(rng))] + extra
                args, valid = finish(rng, table, cmd, flags, True)
                if valid:
                    cases.append((args, valid))
                    break
    return cases


def command_line_cases(rng, table):
    """Malformed command lines: each command with a positional argument
    among valid flags, an unknown subcommand with valid flags, and no
    subcommand at all."""
    cases = [([], False)]
    for cmd in COMMAND_FLAGS:
        for positional in POSITIONALS:
            args, _ = finish(rng, table, cmd,
                             valid_flags(rng, table, cmd, rng.randint(0, 5)),
                             True)
            args.insert(rng.randint(1, len(args)), positional)
            cases.append((args, False))
    for name in BOGUS_COMMANDS:
        cmd = rng.choice(list(COMMAND_FLAGS))
        args, _ = finish(rng, table, cmd,
                         valid_flags(rng, table, cmd, rng.randint(0, 5)),
                         True)
        cases.append(([name] + args[1:], False))
    return cases


def random_case(rng, table):
    """Several flags at once, keys possibly repeated; either all valid, or
    each value bad with probability 0.3 and an unknown key likely."""
    cmd = rng.choice(list(COMMAND_FLAGS))
    mixed = rng.random() < 0.5
    flags = []
    valid = True
    for key, value in valid_flags(rng, table, cmd, rng.randint(0, 8)):
        if mixed and table[key].bad and rng.random() < 0.3:
            value = rng.choice(table[key].bad)
            valid = False
        flags.append((key, value))
    if mixed and rng.random() < 0.5:
        flags.append((rng.choice(BOGUS_KEYS), str(rng.randint(0, 3))))
        valid = False
    if flags and rng.random() < 0.2:
        flags.append(rng.choice(flags))
    return finish(rng, table, cmd, flags, valid)


def run_case(cli, args, valid, cwd):
    try:
        proc = subprocess.run([cli] + args, cwd=cwd, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out after %ds" % TIMEOUT_S
    rc = proc.returncode
    # A sanitizer build reports with exit 1 unless told otherwise.
    if b"Sanitizer" in proc.stderr or b"runtime error:" in proc.stderr:
        return "sanitizer report, exit %d" % rc
    if rc == 0:
        return "ok"
    if rc == 1:
        message = proc.stderr.decode(errors="replace").strip()
        if not message:
            return "exit 1 with an empty stderr"
        if valid:
            return "valid flags rejected: " + message.splitlines()[-1]
        return "rejected"
    if rc < 0:
        return "killed by signal %d" % -rc
    tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
    return "exit %d: %s" % (rc, " | ".join(tail))


def write_corpora(cli, tmp, rng):
    """A 200-document corpus file, and damaged or missing variants of it."""
    good = os.path.join(tmp, "good.zmbc")
    gen = subprocess.run([cli, "generate", "--task=entity", "--docs=200",
                          "--seed=3", "--out=" + good], capture_output=True)
    if gen.returncode != 0:
        raise RuntimeError("cannot generate the fixture corpus: " +
                           gen.stderr.decode(errors="replace"))
    with open(good, "rb") as f:
        data = f.read()
    flipped = bytearray(data)
    for _ in range(8):
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
    variants = {
        "truncated.zmbc": data[:len(data) // 3],
        "garbage.zmbc": b"NOTZ" + bytes(rng.randrange(256) for _ in range(64)),
        "flipped.zmbc": bytes(flipped),
        "empty.zmbc": b"",
    }
    bad = ["", os.path.join(tmp, "missing.zmbc"), tmp]
    for name, content in variants.items():
        path = os.path.join(tmp, name)
        with open(path, "wb") as f:
            f.write(content)
        bad.append(path)
    return good, bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", required=True, help="zombie_cli binary")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cli = os.path.abspath(args.cli)

    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix="zombie-cli-fuzz-") as tmp:
        good, bad_corpora = write_corpora(cli, tmp, rng)
        table = flag_table(tmp, good, bad_corpora)
        cases = single_mutation_cases(rng, table)
        cases += all_valid_cases(rng, table)
        cases += command_line_cases(rng, table)
        cases += [random_case(rng, table) for _ in range(RANDOM_CASES)]
        rng.shuffle(cases)

        failures = []
        outcomes = {"ok": 0, "rejected": 0}
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            results = pool.map(lambda case: run_case(cli, *case, tmp), cases)
            for (case, _), outcome in zip(cases, results):
                if outcome in outcomes:
                    outcomes[outcome] += 1
                else:
                    failures.append((case, outcome))
        for case, problem in failures:
            print("FAIL: zombie_cli %s -> %s" %
                  (" ".join(shlex.quote(a) for a in case), problem))
        print("%d cases (seed %d, %d all valid): %d exit 0, %d rejected "
              "with exit 1, %d failed" %
              (len(cases), args.seed, sum(valid for _, valid in cases),
               outcomes["ok"], outcomes["rejected"], len(failures)))
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

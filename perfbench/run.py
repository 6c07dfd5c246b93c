"""Refute-and-check benchmark for kcproof.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/kcproof``; it needs
nothing but the standard library.  One run generates the workload's zoo
formula from the seed, then repeats, for about S seconds and at least
twice if the time allows, a fresh producer process (formula to proof text)
followed by a fresh checker process (proof text to verdict, as ``kcp
check`` does), and reports medians.  Each repetition also times set-up
(import plus zoo generation) in three processes of its own, so that set-up
samples, like the others, spread over the whole run.  Every honest proof
must be accepted; two mutants of the first proof (last line dropped, one
join diagram altered) must be rejected, each at the line and for the
reason that ``mutants`` gives.  dsdnnf_fold also checks that the ``kcp``
command line yields the same proof and verdict as the library.

A run must end within DEADLINE_S.  It stops repeating early when the next
repetition might not fit, so a slower program still reports its times; it
fails only when the first repetition does not fit: for treewidth_sdd with
``--trace 1``, the longest run, when the program is about four times
slower than the one this was written against.

With ``--trace 1`` every repetition adds a traced checker, and the run adds
one traced producer; their layer spans give the per-layer metrics.  A
self-test follows: the workload's main-layer metrics must be non-zero and
its main layers must hold most of the checker's self time.

Scratch files go to ``.bench_out/<workload>-<seed>/`` in the checkout; the
results and span files stay there, the proofs are removed.  The last line of
standard output is the JSON result; the line before it gives the proof's
SHA-256 and the raw samples.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import mutants  # noqa: E402
from tracing import VTREE_BUILDERS  # noqa: E402

DEADLINE_S = 170.0
MIN_REPS = 2
# a further repetition starts only while this many times the last one's
# wall time is left, which also covers the work after the last repetition
FIT_FACTOR = 2.0
SETUP_PER_REP = 3
# a repetition adds producer processes, up to PRODUCE_MAX, until they have
# measured PRODUCE_MIN_S, so that a producer much faster than its checker
# still gets enough measured time; the extra ones do not count against
# --seconds
PRODUCE_MIN_S = 0.3
PRODUCE_MAX = 8

# format, layers that must hold most of the check's self time, and the
# per-layer metrics the workload exists to load (all must be non-zero)
WORKLOADS = {
    "eq_obdd": ("obdd", ("obdd",), (
        "obdd.apply_s", "obdd.apply_calls", "obdd.from_clause_s",
        "obdd.to_lines_s", "obdd.from_lines_s", "obdd.store_nodes",
        "obdd.cache_entries", "proofs.to_text_s", "proofs.parse_s",
        "proofs.check_self_s", "proofs.lines_init", "proofs.lines_join",
        "proofs.total_nodes", "gc.collections", "gc.pause_s",
        "zoo.generate_s")),
    "treewidth_sdd": ("sdd", ("sdd", "structure"), (
        "sdd.apply_s", "sdd.apply_calls", "sdd.from_clause_s",
        "sdd.equal_s", "sdd.to_lines_s", "sdd.from_lines_s",
        "structure.vtree_build_s", "structure.variables_calls",
        "cnf.tree_decomposition_s", "refute.produce_self_s",
        "gc.collections", "gc.pause_s", "zoo.generate_s")),
    "dsdnnf_fold": ("dsdnnf", ("dsdnnf",), (
        "dsdnnf.conjoin_s", "dsdnnf.conjoin_calls",
        "dsdnnf.validate_deterministic_s", "dsdnnf.validate_structured_s",
        "dsdnnf.join_check_s", "dsdnnf.count_s", "dsdnnf.from_lines_s",
        "dsdnnf.to_lines_s", "zoo.generate_s")),
    "sdd_moves": ("sdd", ("sdd", "structure"), (
        "sdd.rebind_s", "sdd.restrict_s", "sdd.count_s",
        "sdd.store_build_s", "sdd.stores_built", "sdd.store_nodes",
        "sdd.cache_entries", "proofs.lines_move", "zoo.generate_s")),
}

# per-layer metric -> span name whose inclusive seconds (or calls) it sums
SPAN_SECONDS = {
    "obdd.apply_s": "obdd.obdd_apply",
    "obdd.from_clause_s": "obdd.obdd_from_clause",
    "obdd.to_lines_s": "obdd.obdd_to_lines",
    "obdd.from_lines_s": "obdd.obdd_from_lines",
    "sdd.apply_s": "sdd.sdd_apply",
    "sdd.from_clause_s": "sdd.sdd_from_clause",
    "sdd.equal_s": "sdd.sdd_equal",
    "sdd.to_lines_s": "sdd.sdd_to_lines",
    "sdd.from_lines_s": "sdd.sdd_from_lines",
    "sdd.rebind_s": "sdd.rebind",
    "sdd.restrict_s": "sdd.sdd_restrict",
    "sdd.count_s": "sdd.sdd_count",
    "sdd.store_build_s": "sdd.SddStore",
    "dsdnnf.conjoin_s": "dsdnnf.dsdnnf_conjoin",
    "dsdnnf.validate_deterministic_s": "dsdnnf.validate_deterministic",
    "dsdnnf.validate_structured_s": "dsdnnf.validate_structured",
    "dsdnnf.join_check_s": "dsdnnf.dsdnnf_join_check",
    "dsdnnf.count_s": "dsdnnf.dsdnnf_count",
    "dsdnnf.from_lines_s": "dsdnnf.circuit_from_lines",
    "dsdnnf.to_lines_s": "dsdnnf.circuit_to_lines",
    "cnf.tree_decomposition_s": "cnf.tree_decomposition",
    "proofs.to_text_s": "proofs.proof_to_text",
    "proofs.parse_s": "proofs.parse_proof",
}
SPAN_CALLS = {
    "obdd.apply_calls": "obdd.obdd_apply",
    "sdd.apply_calls": "sdd.sdd_apply",
    "dsdnnf.conjoin_calls": "dsdnnf.dsdnnf_conjoin",
}
SELF_TEST_SHARE = 0.5


class RunFailed(Exception):
    pass


class Runner:
    """Starts worker processes one at a time within the run's deadline."""

    def __init__(self, workload, seed, directory):
        self.workload, self.seed, self.directory = workload, seed, directory
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def left(self):
        return self.deadline - time.monotonic()

    def __call__(self, role, *extra, trace=False):
        self.count += 1
        result = os.path.join(self.directory, "%03d-%s.json"
                              % (self.count, role))
        argv = [sys.executable, os.path.join(HERE, "worker.py"), role,
                self.workload, str(self.seed), result]
        if role != "setup":
            argv += [self.directory, *extra]
        if trace:
            argv.append("--trace")
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            raise RunFailed("%s worker ran past the deadline" % role)
        if done.returncode != 0:
            raise RunFailed("%s worker exited with %d:\n%s"
                            % (role, done.returncode, done.stderr[-4000:]))
        with open(result) as handle:
            return json.load(handle)


def _spans(summaries, name, field):
    return sum(s["names"].get(name, [0.0, 0])[field] for s in summaries)


def _stores(summaries, layer, field):
    return sum(s["stores"].get(layer, [0, 0, 0])[field] for s in summaries)


def layer_metrics(traced_produce, traced_check, check_s, reps):
    """Per-layer metrics from one traced produce and the traced check of
    median time, one of which follows every untraced repetition.

    Span times and counts sum both processes; ``check_self_s`` metrics are
    the checker's self time in that layer.  GC figures are medians over the
    untraced repetitions, since tracing allocates.  The tracing overhead
    compares the median traced check with the median untraced one."""
    both = [traced_produce["trace"], traced_check["trace"]]
    check_self = traced_check["trace"]["self_s"]
    rules = traced_check["rules"]
    m = {}
    for metric, name in SPAN_SECONDS.items():
        m[metric] = (_spans(both, name, 0), "s")
    for metric, name in SPAN_CALLS.items():
        m[metric] = (_spans(both, name, 1), "count")
    for layer in ("obdd", "sdd"):
        m[layer + ".store_nodes"] = (_stores(both, layer, 1), "count")
        m[layer + ".cache_entries"] = (_stores(both, layer, 2), "count")
    m["sdd.stores_built"] = (_stores(both, "sdd", 0), "count")
    m["structure.vtree_build_s"] = (
        sum(_spans(both, "structure." + name, 0) for name in VTREE_BUILDERS),
        "s")
    m["structure.variables_calls"] = (
        sum(s["variables_reads"] for s in both), "count")
    m["zoo.generate_s"] = (sum(seconds for s in both
                               for name, (seconds, _) in s["names"].items()
                               if name.startswith("zoo.")), "s")
    m["proofs.check_self_s"] = (check_self.get("proofs", 0.0), "s")
    for rule in ("init", "join", "move"):
        m["proofs.lines_" + rule] = (rules.get(rule, 0), "count")
    m["proofs.total_nodes"] = (traced_check["stats"]["total_nodes"], "count")
    m["refute.produce_self_s"] = (
        traced_produce["trace"]["self_s"].get("refute", 0.0), "s")
    for layer in ("obdd", "sdd", "dsdnnf", "structure"):
        m[layer + ".check_self_s"] = (check_self.get(layer, 0.0), "s")
    m["gc.collections"] = (statistics.median(
        p["gc"]["collections"] + c["gc"]["collections"] for p, c in reps),
        "count")
    m["gc.pause_s"] = (statistics.median(
        p["gc"]["pause_s"] + c["gc"]["pause_s"] for p, c in reps), "s")
    m["trace.check_overhead"] = (traced_check["check_s"] / check_s - 1.0,
                                 "share")
    return m


def self_test(workload, metrics, traced_check):
    """Problems found by the benchmark's self-test (empty when it passes)."""
    _, main_layers, required = WORKLOADS[workload]
    self_s = traced_check["trace"]["self_s"]
    share = sum(self_s.get(layer, 0.0) for layer in main_layers) \
        / sum(self_s.values())
    problems = ["self-test: %s reads zero" % name for name in required
                if metrics[name][0] == 0]
    if share <= SELF_TEST_SHARE:
        problems.append("self-test: %s hold %.0f%% of check self time"
                        % ("+".join(main_layers), 100 * share))
    return problems, share


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "kcproof", "__init__.py")):
        raise RunFailed("no kcproof sources under %s"
                        % os.path.join(ROOT, "src"))
    fmt = WORKLOADS[args.workload][0]
    directory = os.path.join(ROOT, ".bench_out",
                             "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    child = Runner(args.workload, args.seed, directory)
    attempted = failed = 0
    problems = []

    def expect(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(what)

    setups, reps, produces, traced_checks = [], [], [], []
    measured = rep_s = rep_wall = 0.0
    # the next repetition starts while at least half of it fits in --seconds;
    # checking the mutants does not count against them
    while (len(reps) < MIN_REPS or measured + rep_s / 2 < args.seconds) \
            and (not reps or child.left() > FIT_FACTOR * rep_wall):
        rep_started = time.monotonic()
        if not args.trace:
            setups += [child("setup") for _ in range(SETUP_PER_REP)]
        produced = child("produce")
        extra_started = time.monotonic()
        batch = [produced]
        while sum(p["produce_s_raw"] for p in batch) < PRODUCE_MIN_S \
                and len(batch) < PRODUCE_MAX:
            batch.append(child("produce"))
        extra_s = time.monotonic() - extra_started
        names, expected = [produced["proof"]], []
        if not reps:
            with open(os.path.join(directory, names[0])) as handle:
                text = handle.read()
            rng = random.Random(args.seed)
            for name, (mutant, line, reason) in (
                    ("mutant-drop-last.kcp", mutants.drop_last(text)),
                    ("mutant-alter-join.kcp",
                     mutants.alter_join(text, fmt, rng))):
                with open(os.path.join(directory, name), "w") as out:
                    out.write(mutant)
                names.append(name)
                expected.append({"accepted": False, "line": line,
                                 "reason": reason})
        checked = child("check", *names)
        expect(checked["accepted"], "honest proof rejected: %s"
               % checked["reason"])
        for name, want, got in zip(names[1:], expected, checked["mutants"]):
            expect(got == want, "%s: wanted %s, got %s"
                   % (name, json.dumps(want), json.dumps(got)))
        if any(p["sha256"] != (reps[0][0] if reps else produced)["sha256"]
               for p in batch):
            problems.append("producer output differs between runs")
        if args.trace:
            traced = child("check", produced["proof"], trace=True)
            expect(traced["accepted"], "traced check rejected the proof")
            traced_checks.append(traced)
        reps.append((produced, checked))
        produces += batch
        rep_wall = time.monotonic() - rep_started - checked["mutants_s"]
        rep_s = rep_wall - extra_s
        measured += rep_s

    first_produce, first_check = reps[0]
    check_s = statistics.median(c["check_s"] for _, c in reps)
    info = {"workload": args.workload, "seed": args.seed, "reps": len(reps),
            "proof_sha256": first_produce["sha256"],
            "proof_bytes": first_produce["proof_bytes"],
            "proof_lines": sum(first_check["rules"].values()),
            "mutants": first_check["mutants"],
            "produce_s_raw": [p["produce_s_raw"] for p in produces],
            "check_s_raw": [c["check_s_raw"] for _, c in reps],
            "setup_s_raw": [r["setup_s_raw"] for r in setups],
            "speed": [r["speed"] for pair in reps for r in pair]}

    if args.trace:
        traced_produce = child("produce", trace=True)
        traced_checks.sort(key=lambda c: c["check_s"])
        traced_check = traced_checks[len(traced_checks) // 2]
        metrics = layer_metrics(traced_produce, traced_check, check_s, reps)
        found, share = self_test(args.workload, metrics, traced_check)
        problems += found
        info["main_layer_check_share"] = share
    else:
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
            "produce_s": (statistics.median(p["produce_s"] for p in produces),
                          "s"),
            "check_s": (check_s, "s"),
            "produce_rss_mb": (statistics.median(p["rss_mb"]
                                                 for p in produces), "MB"),
            "check_rss_mb": (statistics.median(c["rss_mb"] for _, c in reps),
                             "MB"),
            "proof_bytes": (first_produce["proof_bytes"], "bytes"),
            "max_diagram_size": (first_check["stats"]["max_diagram_size"],
                                 "nodes"),
        }

    if args.workload == "dsdnnf_fold":
        cli = child("cli")
        expect(cli["codes"] == [0, 0, 0, 0] and cli["same_formula"]
               and cli["lib_accepted"] and cli["cli_sha256"] == cli["lib_sha256"],
               "command line disagrees with the library: %s" % json.dumps(cli))
        info["cli"] = cli

    if not args.trace:
        metrics["verdict_accuracy"] = ((attempted - failed) / attempted,
                                       "share")
    for name in os.listdir(directory):
        if name.endswith((".kcp", ".cnf")):
            os.remove(os.path.join(directory, name))
    info["problems"] = problems
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except RunFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

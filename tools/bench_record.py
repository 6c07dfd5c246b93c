"""Record benchmark runs of one or more source trees in BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N --tree parent=../p --tree change=. \\
        --workload sdd_moves --seed 11 --seed 12 --seconds 15

For every workload and seed, ``perfbench/run.py`` runs once per tree, in
the order given for the first seed, reversed for the second and so on, so
that two trees form pairs that alternate which runs first.  Each run
happens in its tree's own checkout and process.  Its last output line
(the JSON result) is stored with the proof SHA-256, the repetition count
and the raw samples (``produce_s_raw``, ``check_s_raw``, ``setup_s_raw``,
before the speed scaling, and ``speed``) of the line before it.  Runs
already in the file are kept, so a long series can be recorded in several
calls.  The summary gives, per workload, tree and end-to-end metric, the
median and quartiles over every recorded run; each raw sample list counts
as one more metric, lower is better, whose value in a run is the median of
its samples.  With exactly two trees the summary also counts the pairs in
which the second tree did better, in the direction ``BENCHMARK.json``
declares.  The k-th run of a seed on one tree pairs with the k-th run of
that seed on the other, so a seed recorded twice gives two pairs.  A
metric whose median moves one way from the first tree to the second while
the median of its raw samples moves the other way gets
``"raw_disagrees": true``, since the speed scaling then decides which way
it moved.  The script ends by printing the summary, one line per workload
and metric.

Each run compiles its tree's modules into a new, empty bytecode directory
(``PYTHONPYCACHEPREFIX``), removed after the run, so that no tree imports
``__pycache__`` files left in it by an earlier run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run.py's raw sample lists, summarized beside the scaled metrics
RAW = ("check_s_raw", "produce_s_raw", "setup_s_raw")


def run_once(tree, workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        done = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tree, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPYCACHEPREFIX=cache))
    lines = done.stdout.strip().splitlines()
    record = {"exit": done.returncode, "result": None}
    if done.returncode == 0 and len(lines) >= 2:
        info = json.loads(lines[-2])
        record["proof_sha256"] = info["proof_sha256"]
        record["reps"] = info["reps"]
        record.update({key: info[key] for key in RAW + ("speed",)
                       if key in info})
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = done.stderr[-2000:]
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_value(record, metric):
    """The run's value of an end-to-end metric, or the median of a raw
    sample list; None when the run did not report it."""
    if metric in RAW:
        samples = record.get(metric)
        return statistics.median(samples) if samples else None
    found = record["result"]["metrics"].get(metric)
    return None if found is None else found["value"]


def summarize(runs, labels, better):
    better = dict(better, **{metric: True for metric in RAW})
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload
                and r["result"] is not None and not r["trace"]]
        table = summary.setdefault(workload, {})
        for metric, lower in sorted(better.items()):
            entry = {}
            values = {}
            for label in labels:
                # per seed, this tree's values in the order they were run
                values[label] = {}
                for r in mine:
                    value = run_value(r, metric)
                    if r["tree"] == label and value is not None:
                        values[label].setdefault(r["seed"], []).append(value)
                every = sorted(v for seed_values in values[label].values()
                               for v in seed_values)
                if every:
                    q1, median, q3 = quartiles(every)
                    entry[label] = {"median": median, "q1": q1, "q3": q3,
                                    "runs": len(every)}
            if len(labels) == 2:
                first, second = (values[label] for label in labels)
                pairs = [pair for seed in sorted(set(first) & set(second))
                         for pair in zip(first[seed], second[seed])]
                entry["pairs"] = len(pairs)
                entry["second_better"] = sum(
                    (b < a) if lower else (b > a) for a, b in pairs)
            if entry:
                table[metric] = entry
        if len(labels) == 2:
            for metric in RAW:
                scaled = metric[:-len("_raw")]
                if shift(table.get(scaled), labels) \
                        * shift(table.get(metric), labels) < 0:
                    table[scaled]["raw_disagrees"] = True
    return summary


def shift(entry, labels):
    """The second tree's median less the first's, 0 unless both have one."""
    if entry is None or not all(label in entry for label in labels):
        return 0
    return entry[labels[1]]["median"] - entry[labels[0]]["median"]


def number(value):
    return "%.0f" % value if abs(value) >= 1000 else "%.4g" % value


def summary_lines(summary, labels):
    """One line per workload and metric: each tree's median [q1, q3] and
    run count, then the pair wins of the second tree when there are two,
    and a note when the raw median moves the other way."""
    lines = []
    for workload, table in sorted(summary.items()):
        for metric, entry in sorted(table.items()):
            trees = ["%s %s [%s, %s] x%d" % (
                label, number(entry[label]["median"]),
                number(entry[label]["q1"]), number(entry[label]["q3"]),
                entry[label]["runs"]) for label in labels if label in entry]
            if not trees:
                continue  # no run reported this metric
            line = "%s %s: %s" % (workload, metric, ", ".join(trees))
            if "pairs" in entry:
                line += "; %s better in %d of %d pairs" % (
                    labels[1], entry["second_better"], entry["pairs"])
            if entry.get("raw_disagrees"):
                line += "; raw median moves the other way"
            lines.append(line)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True,
                        help="names the output file, BENCH_<pr>.json at "
                             "the root of this script's checkout")
    parser.add_argument("--tree", action="append", required=True,
                        metavar="LABEL=DIR",
                        help="a source tree to run, in order; repeatable")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trees = []
    for spec in args.tree:
        label, sep, directory = spec.partition("=")
        if not sep or not label:
            parser.error("--tree takes LABEL=DIR, not %r" % spec)
        trees.append((label, os.path.abspath(directory)))

    out = os.path.join(ROOT, "BENCH_%s.json" % args.pr)
    runs, labels = [], []
    if os.path.exists(out):
        with open(out) as handle:
            old = json.load(handle)
        runs, labels = old["runs"], old["trees"]
    labels += [label for label, _ in trees if label not in labels]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        better = {m["name"]: m["better"] == "lower"
                  for m in json.load(handle)["end_to_end"]}
    failed = 0
    for workload in args.workload:
        for index, seed in enumerate(args.seed):
            for label, directory in (trees[::-1] if index % 2 else trees):
                record = {"workload": workload, "seed": seed, "tree": label,
                          "seconds": args.seconds, "trace": args.trace}
                record.update(run_once(directory, workload, seed,
                                       args.seconds, args.trace))
                runs.append(record)
                correct = record["result"] is not None \
                    and record["result"]["correct"]
                failed += not correct
                print("%s seed %d %s: %s" % (
                    workload, seed, label,
                    "correct" if correct else "FAILED"), flush=True)
                # rewritten after every run, so an interrupted series
                # keeps what it measured
                with open(out, "w") as handle:
                    json.dump({"trees": labels, "runs": runs,
                               "summary": summarize(runs, labels, better)},
                              handle, indent=1, sort_keys=True)
                    handle.write("\n")
    for line in summary_lines(summarize(runs, labels, better), labels):
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process of the benchmark.

    python3 perfbench/worker.py setup   WORKLOAD SEED RESULT
    python3 perfbench/worker.py produce WORKLOAD SEED RESULT DIR [--trace]
    python3 perfbench/worker.py check   WORKLOAD SEED RESULT DIR PROOF
                                        [MUTANT ...] [--trace]
    python3 perfbench/worker.py cli     WORKLOAD SEED RESULT DIR

``setup`` times the import of kcproof plus the zoo generation of the
formula.  ``produce`` writes the formula and the proof text into DIR and
times formula to proof text.  ``check`` reads them back and times proof
text to verdict, the way ``kcp check`` does; mutants after the first proof
are read and checked after the timing and the peak-memory reading.  ``cli`` runs the
command-line agreement check.  Each role writes its result as JSON to
RESULT.  With ``--trace`` the process records layer spans and writes them
next to RESULT.
"""

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

TICK_S = 0.02
# seconds one tick of _tick_work takes at the reference machine speed
TICK_REFERENCE_S = 0.00031


def _tick_work(table=dict.fromkeys(range(512), 0)):
    # dict and string work like kcproof's, allocating nothing the cyclic
    # garbage collector tracks, so that ticks do not shift its schedule
    for i in range(800):
        key = i & 511
        table[key] = table[key] + len("L" + str(i & 15))


class SpeedClock:
    """Times a region and samples the machine's speed inside it.

    The machines this runs on are shared, and their speed swings by up to
    a factor of two within a second; process CPU time swings with it.
    Every TICK_S a timer signal runs a fixed piece of work twice and
    records how long the second, warm, run took; the time spent in ticks
    is taken out of the region's time.  ``scaled_s`` is the region's
    time at the reference speed: the net seconds times TICK_REFERENCE_S
    over the mean tick, with one tick before and one after the region so
    that short regions have samples too.
    """

    def __init__(self):
        self.ticks = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None):
        started = time.perf_counter()
        # the first pass refills the caches the program's own work evicted,
        # so that the timed second pass reads the machine's speed rather
        # than the program's working set
        _tick_work()
        warm = time.perf_counter()
        _tick_work()
        done = time.perf_counter()
        self.ticks.append(done - warm)
        self.spent += done - started

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.spent = 0.0
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self.started - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self.speed = TICK_REFERENCE_S / statistics.fmean(self.ticks)
        self.scaled_s = self.seconds * self.speed
        return False

    def report(self, name):
        return {name: self.scaled_s, name + "_raw": self.seconds,
                "speed": self.speed, "ticks": len(self.ticks)}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(on, workloads):
    if not on:
        return None
    from tracing import Tracer
    return Tracer().install(callers=[workloads])


def _write(result, tracer, clock, result_path):
    if tracer is not None:
        result["trace"] = tracer.summary(clock.speed)
        tracer.write_spans(result_path + ".spans.tsv")
    with open(result_path, "w") as out:
        json.dump(result, out)


def setup(workload, seed):
    with SpeedClock() as clock:
        import workloads
        workloads.generate(workload, seed)
    return clock.report("setup_s"), None, clock


def produce(workload, seed, directory, trace):
    import workloads
    from kcproof.cnf import to_dimacs
    from tracing import GcClock
    tracer = _tracer(trace, workloads)
    instance = workloads.generate(workload, seed)
    with open(os.path.join(directory, "formula.cnf"), "w") as out:
        out.write(to_dimacs(instance.phi))
    gc_clock = GcClock().install()
    with SpeedClock() as clock:
        text = workloads.produce(workload, instance)
    rss = _peak_rss_mb()
    data = text.encode()
    name = "proof-%s.kcp" % hashlib.sha256(data).hexdigest()[:16]
    with open(os.path.join(directory, name), "wb") as out:
        out.write(data)
    result = clock.report("produce_s")
    result.update({"rss_mb": rss, "proof": name, "proof_bytes": len(data),
                   "sha256": hashlib.sha256(data).hexdigest(),
                   "gc": gc_clock.read(clock.speed)})
    return result, tracer, clock


def check(workload, seed, directory, proofs, trace):
    import workloads
    from kcproof.cnf import parse_dimacs
    from tracing import GcClock
    def read(name):
        with open(os.path.join(directory, name)) as handle:
            return handle.read()

    phi = parse_dimacs(read("formula.cnf"))
    text = read(proofs[0])
    tracer = _tracer(trace, workloads)
    gc_clock = GcClock().install()
    with SpeedClock() as clock:
        proof, verdict = workloads.check(phi, text)
    rss = _peak_rss_mb()
    gc_counts = gc_clock.read(clock.speed)
    rules = {}
    for line in proof.lines:
        rules[line.rule] = rules.get(line.rule, 0) + 1
    started = time.perf_counter()
    mutants = []
    for name in proofs[1:]:
        got = workloads.check(phi, read(name))[1]
        mutants.append({"accepted": got.accepted, "line": got.failing_line,
                        "reason": got.reason})
    result = clock.report("check_s")
    result.update({"rss_mb": rss, "accepted": verdict.accepted,
                   "reason": verdict.reason, "stats": verdict.stats,
                   "rules": rules, "mutants": mutants,
                   "mutants_s": time.perf_counter() - started,
                   "gc": gc_counts})
    return result, tracer, clock


def cli(directory):
    import workloads
    got = workloads.cli_agreement(directory)
    return {"codes": got["codes"], "same_formula": got["same_formula"],
            "lib_accepted": got["lib_accepted"],
            "cli_sha256": hashlib.sha256(got["cli_text"].encode()).hexdigest(),
            "lib_sha256": hashlib.sha256(got["lib_text"].encode()).hexdigest()
            }, None, None


def main(argv):
    trace = "--trace" in argv
    args = [a for a in argv if a != "--trace"]
    role, workload, seed, result_path = args[0], args[1], int(args[2]), args[3]
    if role == "setup":
        result, tracer, clock = setup(workload, seed)
    elif role == "produce":
        result, tracer, clock = produce(workload, seed, args[4], trace)
    elif role == "check":
        result, tracer, clock = check(workload, seed, args[4], args[5:], trace)
    elif role == "cli":
        result, tracer, clock = cli(args[4])
    else:
        raise SystemExit("unknown role %r" % role)
    _write(result, tracer, clock, result_path)


if __name__ == "__main__":
    main(sys.argv[1:])

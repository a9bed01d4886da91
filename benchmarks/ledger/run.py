#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

Two ways to run it.

**One run** (what the benchmark driver calls, once per workload, seed
and run kind)::

    python3 benchmarks/ledger/run.py --workload fig4_inproc --seed 7 \
        --seconds 20 --trace 0

measures in this process and prints one JSON object as the last line:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(``--traced`` is the same).  It exits non-zero when an effect differs
from the oracle, or when a thread or file descriptor outlives the run.

**The whole ledger**::

    python3 benchmarks/ledger/run.py [--workload W] [--seed N] \
        [--repeat R] [--check] [--quick]

launches one fresh process per workload and run kind, prints the
end-to-end metrics of every workload and the per-layer table of the
traced runs, and writes them to ``benchmarks/ledger/out/ledger.json``.
``--repeat R --check`` runs the set R times and exits non-zero when the
spread of an end-to-end metric between the sets exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
DEFAULT_SEED = 2006


def _import_harness():
    """The harness imports the program, which is built from source: it
    must sit in ``src/`` two levels above this directory."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.exit(f"ledger: the program's source is not at {SOURCE}")
    for path in (SOURCE, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import harness
    return harness


def _import_catalogue():
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import catalogue
    return catalogue


def _open_descriptors() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _leaks(descriptors_before: int | None) -> list[str]:
    """Threads and descriptors that outlived the run."""
    deadline = time.monotonic() + 5.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.05)
    problems = [f"thread {thread.name} still alive"
                for thread in threading.enumerate()
                if thread is not threading.main_thread()]
    after = _open_descriptors()
    if descriptors_before is not None and after is not None \
            and after > descriptors_before:
        problems.append(f"{after - descriptors_before} file descriptors "
                        "left open")
    return problems


def _fix_hashing() -> None:
    """String hashing is randomized per process, which reorders every
    set of RDF terms and moves the SPARQL workload by several percent
    from run to run: the run re-executes itself with hashing fixed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _pin_to_one_cpu() -> None:
    """A Python process whose threads share the interpreter lock across
    two cores settles into faster or slower hand-off patterns from one
    run to the next (the HTTP workload swung by 15%), so a workload with
    a worker runtime runs on one CPU — which is also how such a process
    is best deployed.  Single-threaded workloads stay unpinned: the
    kernel can then move them off a CPU that something else is using."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(options) -> int:
    _fix_hashing()
    harness = _import_harness()
    workload = harness.WORKLOADS[options.workload]
    if workload.paced:
        _pin_to_one_cpu()
    descriptors = _open_descriptors()
    run = harness.run_traced if options.trace else harness.run_timed
    result = run(workload, options.seed, options.seconds, options.quick)
    for name, metric in result["metrics"].items():
        print(f"{options.workload:<18} {name:<38} "
              f"{metric['value']:>14.4f} {metric['unit']}")
    print(f"{options.workload:<18} {'failed_share':<38} "
          f"{result['failed'] / result['attempted']:>14.4f} share "
          f"({result['failed']} of {result['attempted']})")
    leaks = _leaks(descriptors)
    for leak in leaks:
        print(f"ledger: leak: {leak}", file=sys.stderr)
    if leaks:
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the whole ledger -----------------------------------------------------------

def _launch(workload: str, seed: int, seconds: float, trace: int,
            quick: bool) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
        raise SystemExit(f"ledger: {workload} (trace {trace}) exited with "
                         f"code {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def _spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (range
    over median for fewer than four sets)."""
    middle = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / middle
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / middle


def run_ledger(options) -> int:
    catalogue = _import_catalogue()
    END_TO_END, PER_LAYER = catalogue.END_TO_END, catalogue.PER_LAYER
    names = [options.workload] if options.workload \
        else [name for name, _why in catalogue.WORKLOADS]
    seconds = options.seconds if options.seconds is not None \
        else (1.0 if options.quick else catalogue.RUN_SECONDS)
    sets = []
    for repeat in range(options.repeat):
        results = {}
        for name in names:
            results[name] = {
                "timed": _launch(name, options.seed, seconds, 0,
                                 options.quick),
                "traced": _launch(name, options.seed, seconds, 1,
                                  options.quick)}
            timed = results[name]["timed"]
            print(f"\n== {name} (set {repeat + 1}/{options.repeat}, "
                  f"seed {options.seed}) ==")
            for metric, unit, better, bound in END_TO_END:
                print(f"  {metric:<22} {timed['metrics'][metric]['value']:>12.4f}"
                      f" {unit:<5} ({better} is better, bound {bound:.0%})")
            print(f"  {'failed_share':<22} "
                  f"{timed['failed'] / timed['attempted']:>12.4f} share")
        sets.append(results)

    print("\n== per layer (traced runs of the last set) ==")
    print(f"  {'metric':<38}" + "".join(f"{name[:16]:>18}" for name in names))
    for metric, unit, _better in PER_LAYER:
        row = "".join(
            f"{sets[-1][name]['traced']['metrics'][metric]['value']:>18.4f}"
            for name in names)
        print(f"  {metric:<38}{row}  {unit}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "ledger.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"seed": options.seed, "seconds": seconds,
                   "quick": options.quick, "claim": None, "sets": sets},
                  handle, indent=1)

    # a run whose effects differ from the oracle has already ended the
    # ledger in _launch; what is left to judge is the spread
    exceeded = 0
    if options.repeat > 1:
        print(f"\n== spread over {options.repeat} sets of the same code ==")
        for name in names:
            for metric, _unit, _better, bound in END_TO_END:
                spread = _spread([results[name]["timed"]["metrics"][metric]
                                  ["value"] for results in sets])
                verdict = "ok" if spread <= bound else "EXCEEDS BOUND"
                if options.repeat >= 5 and spread > 0.10 \
                        and metric != "setup_s":
                    verdict += " — demote to an ungated ledger.* diagnostic"
                print(f"  {name:<18} {metric:<22} spread {spread:7.2%}  "
                      f"bound {bound:4.0%}  {verdict}")
                exceeded += spread > bound
    return 1 if options.check and exceeded else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the tests")
    parser.add_argument("--print-definition", action="store_true",
                        help="print the content of /BENCHMARK.json")
    options = parser.parse_args(argv)
    if options.print_definition:
        print(json.dumps(_import_catalogue().definition(), indent=2))
        return 0
    if options.traced:
        options.trace = 1
    if options.trace is not None:
        if not options.workload:
            parser.error("--trace needs --workload")
        if options.seconds is None:
            parser.error("--trace needs --seconds")
        return run_once(options)
    return run_ledger(options)


if __name__ == "__main__":
    sys.exit(main())

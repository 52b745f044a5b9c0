"""One benchmark process.  ``run.py`` starts a fresh one for every role, so
no solver or prepare cache carries over between runs or workloads.

    python3 perfbench/worker.py setup WORKLOAD SEED SECONDS
    python3 perfbench/worker.py run   WORKLOAD SEED SECONDS [SPANS_FILE]
    python3 perfbench/worker.py check WORKLOAD SEED SECONDS  < answers

``setup`` times ``import abdukit`` plus building the workload's inputs.
``run`` does the same set-up, then sends the queries one after another
(closed loop, one client) until SECONDS have passed, and prints the
latencies and the answers; given SPANS_FILE it records spans around the
library's public functions and writes them there at exit.  ``check``
replays the same inputs through the oracle route and reports every
answer that differs.  Each role prints one JSON object on stdout.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time


def _setup(name: str, seed: int, seconds: float, tracer=None):
    t0 = time.perf_counter()
    import abdukit

    if tracer is not None:
        tracer.install()
    import workloads

    wl = workloads.build(name, seed, seconds)
    return wl, time.perf_counter() - t0


def _setup_role(name: str, seed: int, seconds: float) -> dict:
    _, setup_s = _setup(name, seed, seconds)
    return {"setup_s": setup_s}


def _run_role(name: str, seed: int, seconds: float, spans_file: str | None) -> dict:
    tracer = None
    if spans_file:
        import spans

        tracer = spans.Tracer()
    wl, setup_s = _setup(name, seed, seconds, tracer)
    import abdukit
    import routes

    # The input pool is the harness's, not the library's: keep the cyclic
    # collector from rescanning it during the query phase.
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.begin_queries()
    state: dict = {}
    latencies: list[float] = []
    answers: list[str] = []
    harness_s = 0.0
    start = time.perf_counter()
    for q in wl.queries:
        if q.op == "reset":
            routes.reset(state, q)
            continue
        if time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.query = len(latencies)
        t = time.perf_counter()
        try:
            result = routes.library(q, state, wl.config)
        except Exception as exc:  # a failed query is counted, not fatal
            result = exc
        done = time.perf_counter()
        latencies.append(done - t)
        if isinstance(result, Exception):
            answers.append(json.dumps({"error": "%s: %s" % (type(result).__name__, result)}))
        else:
            # kept as text so that the answers add nothing for the
            # collector to scan; the time this takes is not the library's
            answers.append(json.dumps(routes.canonical(result)))
            if q.writes:
                nxt = routes.next_program(result)
                if nxt is not None:
                    state[q.writes] = nxt
        harness_s += time.perf_counter() - done
    wall = time.perf_counter() - start - harness_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.stop()
        tracer.write(spans_file)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "answers": [json.loads(a) for a in answers],
        "exhausted": len(latencies) == sum(1 for q in wl.queries if q.op != "reset"),
        "digest": wl.digest(),
        "kernel": abdukit.solver.KERNEL_NAME,
        "config": repr(wl.config),
    }


def _check_role(name: str, seed: int, seconds: float) -> dict:
    answers = json.load(sys.stdin)["answers"]
    wl, _ = _setup(name, seed, seconds)
    import routes

    state: dict = {}
    mismatches = []
    i = 0
    for q in wl.queries:
        if i == len(answers):
            break
        if q.op == "reset":
            routes.reset(state, q)
            continue
        expected, nxt = routes.oracle(q, state, wl.config)
        if expected != answers[i]:
            mismatches.append({"query": i, "op": q.op, "expected": expected, "got": answers[i]})
        if q.writes and nxt is not None:
            state[q.writes] = nxt
        i += 1
    return {"checked": i, "mismatches": mismatches, "digest": wl.digest()}


def main(argv: list[str]) -> int:
    role, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if role == "setup":
        out = _setup_role(name, seed, seconds)
    elif role == "run":
        out = _run_role(name, seed, seconds, argv[4] if len(argv) > 4 else None)
    elif role == "check":
        out = _check_role(name, seed, seconds)
    else:
        raise SystemExit("unknown role %r" % role)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""One benchmark operation in a fresh interpreter.

    python3 perfbench/worker.py <workload> '<input parameters as JSON>' <run|trace|setup>

Times set-up (imports and input generation) and the operation, then prints
one JSON line: the timings, the peak RSS of this process, the checked
outputs of each operation and, in mode trace, the per-layer metrics.  In
mode setup it stops after set-up and prints only {"setup_s": ...}.  A
fresh process per operation gives every operation the cold dictionary
cache a command-line user pays, and its own ru_maxrss.

Exit code 3 means the tracer could not observe a layer; run.py stops on it.
"""

import time

BOOT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    workload, params, mode = argv[0], json.loads(argv[1]), argv[2]
    if mode not in ("run", "trace", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    sys.path.insert(0, SRC)
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_fft()
    import phaseproj
    if not os.path.abspath(phaseproj.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"imported phaseproj from {phaseproj.__file__}, not {SRC}")
    import workloads
    if tracer is not None:
        tracer.install_program()
    inputs = workloads.build_inputs(workload, params)

    start = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"setup_s": start - BOOT}))
        return
    cpu_start = time.process_time()
    raw, finished = workloads.execute(workload, inputs, time.perf_counter)
    end = time.perf_counter()
    cpu_s = time.process_time() - cpu_start

    result = {
        "setup_s": start - BOOT,
        "wall_s": end - start,
        "first_result_s": finished[0] - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": cpu_s,
        "ops": [workloads.summarize(workload, r) for r in raw],
    }
    if tracer is not None:
        tracer.require(workloads.REACHES[workload])
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    # the script's own directory is sys.path[0], so the benchmark's
    # modules import by plain name
    from tracer import TRACE_ERROR_EXIT, TraceError
    try:
        main(sys.argv[1:])
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        sys.exit(TRACE_ERROR_EXIT)

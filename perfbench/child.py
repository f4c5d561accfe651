"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py SPAWN_NS RESULT_JSON SPANS_JSON|- [CLI ARGS...]

SPAWN_NS is the parent's ``time.monotonic_ns()`` taken just before it
started this process, so ``setup_s`` covers interpreter start plus
``import hgaclust.cli`` -- the cost a CLI user pays on every call. With no
CLI arguments the pass only measures that set-up. With a SPANS_JSON path
the layer functions are wrapped by :mod:`tracer` for the duration of
``hgaclust.cli.main`` and the spans are written there afterwards.
"""

import time
import sys

import hgaclust.cli

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402  (after the timed import on purpose)
import resource  # noqa: E402


def main() -> None:
    spawn_ns, result_path, spans_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    result = {
        "setup_s": (IMPORTED_NS - spawn_ns) / 1e9,
        "module_file": hgaclust.cli.__file__,
    }
    if argv:
        recorder = None
        if spans_path != "-":
            import tracer

            recorder = tracer.Recorder()
            recorder.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = hgaclust.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if recorder is not None:
            recorder.uninstall()
            recorder.dump(spans_path)
        result.update(exit_code=code, wall_s=wall, cpu_s=cpu)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

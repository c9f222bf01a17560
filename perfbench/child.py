"""One fresh interpreter of the benchmark; started by run.py, never imported.

    python3 child.py inputs WORKLOAD SEED DIR RESULT
        Generate the workload's input files under DIR and record the
        environment (Python, numpy, scipy, kernel backend, nproc).
    python3 child.py setup CACHE RESULT
        Time ``import mutreduce.cli``, ``load_cache`` and ``build_index``
        on CACHE, as a fresh process pays them.
    python3 child.py run SPEC RESULT
        Run the commands listed in SPEC in this process through
        ``mutreduce.cli.main``, one after another, timing each. With
        ``"trace": true`` in SPEC, spans are recorded around the calls
        into each layer and written to ``SPEC["spans"]`` when the run ends.

``setup`` and ``run`` time with the speed probe of probe.py running in
this process, and report each time on the wall clock and at the probe's
reference speed. The probe imports numpy before ``setup`` starts its
clock, and ``peak_rss_mb`` leaves out the probe's buffer.

RESULT receives one JSON object. ``PYTHONPATH`` must point at the
program's ``src`` directory. Keeping the program out of run.py's own
process also keeps run.py small: a child's ``ru_maxrss`` starts from the
size of the process that started it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from probe import BUFFER_BYTES, Probe


def _inputs(name: str, seed: str, directory: str) -> dict:
    import numpy
    import scipy
    import mutreduce
    import workloads
    workloads.generate_inputs(workloads.Workload(name, int(seed), Path(directory)))
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "backend": mutreduce.KERNEL_BACKEND,
            "nproc": len(os.sched_getaffinity(0))}


def _setup(cache_path: str, probe: Probe) -> dict:
    started = time.perf_counter()
    import mutreduce.cli  # noqa: F401
    imported = time.perf_counter()
    from mutreduce.cache import load_cache
    from mutreduce.index import build_index
    cache = load_cache(cache_path)
    loaded = time.perf_counter()
    build_index(cache)
    built = time.perf_counter()
    return {"import_s": imported - started, "load_s": loaded - imported,
            "index_s": built - loaded, **probe.at_reference(started, built)}


def _run(spec: dict, probe: Probe) -> dict:
    import mutreduce.cli as cli

    recorder = None
    if spec["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    commands = []
    for name, argv in spec["commands"]:
        main = cli.main if recorder is None else recorder.wrap("cli", name, cli.main)
        start = time.perf_counter()
        code = main(argv)
        commands.append({"name": name, "exit_code": code,
                         **probe.at_reference(start, time.perf_counter())})
    if recorder is not None:
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    return {
        "commands": commands,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - BUFFER_BYTES) / 2**20,
        "program": cli.__file__,
    }


def main(argv: list[str]) -> int:
    mode, *args, result_path = argv
    if mode == "inputs":
        result = _inputs(*args)
    else:
        probe = Probe()
        probe.start()
        if mode == "setup":
            result = _setup(*args, probe)
        else:
            with open(args[0], encoding="utf-8") as fh:
                result = _run(json.load(fh), probe)
        probe.stop()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

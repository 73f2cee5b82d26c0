"""One benchmark process: a set-up probe, a timed pass, or a traced pass.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's `src`, so every pass pays interpreter start and import and finds
the process-wide dual tables and engine caches cold.  Prints one JSON line.

    worker.py setup  WORKLOAD SEED [--tiny]
    worker.py pass   WORKLOAD SEED [--tiny]     (verify and scan)
    worker.py trace  WORKLOAD SEED [--tiny]     (verify and scan)
    worker.py pass-cli  SPAWNED_AT ARGV...      (one CLI command, in-process)
    worker.py trace-cli SPAWNED_AT ARGV...      (the same, traced)

`pass` and `trace` time the same span, from the first timed call to its
return, and so do `pass-cli` and `trace-cli`, from SPAWNED_AT to the return
of `main(argv)`; the difference of each pair is the tracing overhead.

A `speed.Sampler` runs from the start of every worker; each timed span is
printed with its speed factor (`speed_setup`, `speed_pass`), which run.py
multiplies into the span to get reference seconds.

Times are `time.monotonic()` readings, which on Linux share one clock across
processes, so run.py can subtract its own spawn time from them.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import spans
import speed
import workloads


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _prepare(workload: str, seed: int, tiny: bool):
    """Import what the pass calls and make its inputs: the work set-up covers."""
    if workload == "verify":
        import orgrass.suites  # noqa: F401
        return None
    import orgrass.duals  # noqa: F401
    return workloads.scan_inputs(seed, tiny)


def _run(workload: str, inputs, tiny: bool):
    if workload == "verify":
        return workloads.run_verify(tiny)
    return workloads.run_scan(inputs)


def _check(workload: str, inputs, result, tiny: bool) -> tuple[int, list[str]]:
    if workload == "verify":
        return workloads.check_verify(workloads.verify_outputs(result), tiny)
    return workloads.check_scan(inputs, workloads.scan_outputs(inputs, result))


def _layer_totals(tracer: spans.Tracer) -> dict:
    """Raw totals of the traced pass, plus the row-generation share of slicing."""
    raw = tracer.raw()
    tracer.spans.clear()
    rowgen = tracer.time_row_generation()
    if rowgen is not None:
        raw["rowgen_s"] = rowgen
    tracer.uninstall()
    return raw


def _in_reference_seconds(raw: dict, factor: float) -> dict:
    """Scale the seconds of raw totals by the pass's speed factor; counts stay."""
    seconds = ("self:", "incl:", "rowgen_s", "cli.import_s")
    return {key: value * factor if key.startswith(seconds) else value for key, value in raw.items()}


def main(argv: list[str]) -> None:
    sampler = speed.Sampler().start()
    mode = argv[0]
    if mode in ("pass-cli", "trace-cli"):
        run_cli(sampler, float(argv[1]), argv[2:], traced=mode == "trace-cli")
        return
    workload, seed, tiny = argv[1], int(argv[2]), "--tiny" in argv[3:]
    inputs = _prepare(workload, seed, tiny)
    if mode == "setup":
        t_ready = time.monotonic()
        sampler.stop()
        _emit({"t_ready": t_ready, "speed_setup": sampler.factor(0.0, t_ready)})
        return
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
    t_first = time.monotonic()
    result = _run(workload, inputs, tiny)
    t_end = time.monotonic()
    sampler.stop()
    payload = {"t_first": t_first, "t_end": t_end, "speed_setup": sampler.factor(0.0, t_first),
               "speed_pass": sampler.factor(t_first, t_end)}
    payload["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        payload["raw"] = _in_reference_seconds(_layer_totals(tracer), payload["speed_pass"])
    payload["attempted"], payload["failures"] = _check(workload, inputs, result, tiny)
    _emit(payload)


def run_cli(sampler: speed.Sampler, spawned_at: float, argv: list[str], traced: bool) -> None:
    from orgrass import cli

    imported = time.monotonic() - spawned_at
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = tracer.call(f"cli.{argv[0]}", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    t_end = time.monotonic()
    sampler.stop()
    payload = {"exit": 0 if code is None else code if isinstance(code, int) else 1,
               "stdout": out.getvalue(), "t_end": t_end, "speed_pass": sampler.factor(0.0, t_end)}
    if tracer is not None:
        raw = _layer_totals(tracer)
        raw["cli.import_s"] = imported
        raw["count:cli.commands"] = 1
        payload["raw"] = _in_reference_seconds(raw, payload["speed_pass"])
    _emit(payload)


if __name__ == "__main__":
    main(sys.argv[1:])

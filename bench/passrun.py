"""One pass over a workload, in the fresh interpreter that runs this file.

    python3 passrun.py MANIFEST RESULT T0 DEADLINE TRACE

Runs the manifest's cases one after another through ``epsitau.cli.main``,
with stdout and stderr captured in memory, each under the manifest's time
limit, and writes every outcome to RESULT.  T0 is the parent's
``time.perf_counter()`` just before it started this interpreter.  Cases not
started by the monotonic DEADLINE are recorded as timeouts.  With TRACE 1
the layer wrappers of ``tracing`` are installed first.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
from time import perf_counter

import workloads


class CaseTimeout(BaseException):
    """Raised into a case that ran past the time limit."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise CaseTimeout()


def _invoke(cli, argv: list[str], limit: float) -> tuple[int | None, str, str | None]:
    """(exit code, stdout, error name); the timer is disarmed on every path."""
    global _armed
    out, err = io.StringIO(), io.StringIO()
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), None
    except SystemExit as ex:  # argparse rejects the argv
        return (ex.code if isinstance(ex.code, int) else 2), out.getvalue(), None
    except (KeyboardInterrupt, CaseTimeout):
        raise
    except BaseException as ex:  # noqa: BLE001 - an uncaught error is an outcome
        return None, out.getvalue(), type(ex).__name__
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_case(cli, case: dict, limit: float, golden) -> dict:
    t0 = perf_counter()
    try:
        code, out, error = _invoke(cli, case["argv"], limit)
        elapsed = perf_counter() - t0
        cls = "error" if error else workloads.outcome(case, code, out, golden)
    except CaseTimeout:
        elapsed = perf_counter() - t0
        code, out, error, cls = None, "", None, "timeout"
    solved = cls in workloads.SOLVED and elapsed <= limit
    if cls in workloads.SOLVED and not solved:
        cls = "timeout"
    return {
        "id": case["id"], "class": cls, "code": code, "error": error,
        "seconds": elapsed, "charged": elapsed if solved else limit, "out_chars": len(out),
    }


def run_pass(manifest_path: str, t0: float, deadline: float, trace: bool) -> dict:
    import epsitau
    import epsitau.cli as cli

    cli.build_parser()
    setup_s = perf_counter() - t0
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    rec = None
    if trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    signal.signal(signal.SIGALRM, _on_alarm)
    limit = manifest["limit"]
    results = []
    for case in manifest["cases"]:
        if perf_counter() > deadline:
            results.append({"id": case["id"], "class": "timeout", "code": None, "error": "not started",
                            "seconds": 0.0, "charged": limit, "out_chars": 0})
            continue
        gc.collect()
        results.append(run_case(cli, case, limit, manifest["golden"]))
        if rec is not None:
            rec.reset_stack()
    doc = {
        "setup_s": setup_s,
        "src": os.path.dirname(epsitau.__file__),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": results,
    }
    if rec is not None:
        import tracing

        doc["layers"] = tracing.layer_metrics(rec)
        cache = getattr(sys.modules["epsitau.semantics"], "_sequent_cache", None)
        if cache is not None and "semantics.prove" in rec.installed:
            doc["layers"]["semantics.sequent_cache_entries"] = len(cache)
    return doc


def main(argv: list[str]) -> int:
    manifest_path, result_path, t0, deadline, trace = argv
    doc = run_pass(manifest_path, float(t0), float(deadline), trace == "1")
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Operations, passes and the timed loop shared by the workloads."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One checked unit of program work.

    compute(ctx) makes the program calls and is timed; check(out, ctx) runs
    untimed and returns None or a failure message.  ctx is a dict shared by
    the ops of one pass, so later ops can read earlier results.
    """

    name: str
    compute: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]


@dataclass
class PassResult:
    seconds: float
    cpu_seconds: float  # process CPU time of the same calls
    attempted: int
    failures: list[str]  # one message per failed operation
    wrong: int  # failed operations whose output a check rejected


def run_pass(ops: list[Op], tracer=None) -> PassResult:
    """Run every op once; a raising compute or a failing check counts as a
    failed operation and the pass goes on."""
    ctx: dict = {}
    timed = 0.0
    cpu = 0.0
    failures = []
    wrong = 0
    for op in ops:
        err = None
        out = None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            out = op.compute(ctx)
        except Exception as e:  # the run must go on and count it
            err = f"{op.name}: {type(e).__name__}: {e}"
        finally:
            timed += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if tracer is not None:
                tracer.active = False
        if err is None:
            try:
                msg = op.check(out, ctx)
            except Exception as e:  # a check that cannot run is a failure
                msg = f"check raised {type(e).__name__}: {e}"
            if msg:
                err = f"{op.name}: {msg}"
                wrong += 1
        if err:
            failures.append(err)
    return PassResult(seconds=timed, cpu_seconds=cpu, attempted=len(ops), failures=failures, wrong=wrong)


def run_for(ops: list[Op], seconds: float, tracer=None) -> list[PassResult]:
    """Whole passes until `seconds` of wall time have gone by (at least one)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(ops, tracer))
        # drop the pass's arrays before the next one is timed
        gc.collect()
        if time.perf_counter() - start >= seconds:
            return results

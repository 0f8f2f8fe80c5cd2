"""The benchmark's workloads: each is one ``mertens`` CLI invocation.

Why each workload exists is recorded in ``BENCHMARK.json``.

A workload lists the argument vectors a seed may pick from.  The choices
sit in a band of about +-1% around the nominal input, so a seed changes
the inputs without changing the amount of work by more than that.  Smoke
inputs are tiny versions of the same invocations, used by the
benchmark's own tests and to warm the bytecode cache before timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PREC = "192"  # the CLI default, spelled out so the references state it


def sum_argv(k: int, x: int) -> tuple[str, ...]:
    return ("sum", "--k", str(k), "--x", str(x), "--prec", PREC, "--format", "json")


def sweep_argv(stop: int) -> tuple[str, ...]:
    return ("verify", "--start", "1000", "--stop", str(stop), "--points", "13",
            "--prec", PREC, "--format", "json")


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[tuple[str, ...], ...]
    smoke: tuple[str, ...]

    def pick(self, seed: int, smoke: bool = False) -> tuple[str, ...]:
        if smoke:
            return self.smoke
        return random.Random(seed).choice(self.inputs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sum-deep",
            tuple(sum_argv(4, x) for x in (9_900_000, 9_970_000, 10_030_000, 10_100_000)),
            sum_argv(4, 100_000),
        ),
        Workload(
            "sum-wide",
            tuple(sum_argv(1, x) for x in (99_000_000, 99_700_000, 100_300_000,
                                           101_000_000)),
            sum_argv(1, 100_000),
        ),
        Workload(
            "sweep",
            tuple(sweep_argv(stop) for stop in (1_980_000, 1_994_000, 2_006_000,
                                                2_020_000)),
            sweep_argv(100_000),
        ),
    )
}

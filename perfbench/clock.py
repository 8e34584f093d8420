"""The benchmark's one host-clock read."""

import time


def wall_clock() -> float:
    """Monotonic host seconds, for measuring how long the simulator takes.

    Every timing in the benchmark goes through this function; simulated
    time is always read from ``sim.now``.
    """
    return time.perf_counter()  # detlint: ignore[D002] — the benchmark measures real elapsed host time

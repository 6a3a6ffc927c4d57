"""The benchmark's clock and its speed probe.

Times are CPU seconds of the client process: the client is one thread
(``jobs=1``, one native thread), so CPU time leaves out the time other
tenants hold the core.  It does not leave out their slowing of the
core itself.  On a 2-vCPU Xeon guest that reported no steal time, a
fixed pure-Python loop took from 13 to 25 ms per pass in successive
2-second windows, and slow phases lasted tens of seconds -- long enough
to slow a whole run by half.

So every timed request runs between ``start()`` and ``stop()``, which
run ``probe()`` -- a fixed loop of the kind of work the planner does
(exact fractions, dict updates, a sort) -- at both ends and, from a
wall-clock interval timer, every ``PROBE_EVERY_S`` seconds in between.
(A CPU-time timer would not do: while one is armed, Linux reads the
process CPU clock from per-tick samples, in 4 ms steps on that guest.)  The
request's CPU time is scaled to the probe's reference speed:
``seconds * PROBE_REF_S / mean probe time``.  Probes inside a request
track a speed change that lasts only part of it: with probes at the
ends only, one seed's 1.5-second ring64 plans read 1.33 to 2.37 s.
``clock()`` leaves out the probes' own CPU time.  The probe is not
library code, so a change to the library moves the scaled times exactly
as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: ``probe()`` CPU seconds at the reference speed: the fastest of many
#: probes on the 2-vCPU Xeon guest above, Python 3.11.
PROBE_REF_S = 0.0047

#: Seconds between probes inside a request.
PROBE_EVERY_S = 0.1

_probe_s = 0.0          # CPU seconds spent in probes so far
_samples: list = []     # probe times of the current stretch
_busy = False
_factor = 1.0


def clock() -> float:
    """CPU seconds of the process, less the probes'.  Retried when the
    timer's probe lands between the two reads, which would otherwise
    take a whole probe off a span."""
    while True:
        spent = _probe_s
        now = time.process_time()
        if spent == _probe_s:
            return now - spent


def probe() -> float:
    """CPU seconds of one pass of the fixed loop."""
    global _probe_s, _busy
    if _busy:  # the timer fired inside a probe
        return 0.0
    _busy = True
    t0 = time.process_time()
    acc, counts = Fraction(0), {}
    for i in range(1, 2000):
        acc += Fraction(1, i % 97 + 1)
        counts[i % 501] = counts.get(i % 501, 0) + i
    sorted((i * 7919) % 10007 for i in range(5000))
    dt = time.process_time() - t0
    _probe_s += dt
    _samples.append(dt)
    _busy = False
    return dt


def _on_timer(signum, frame) -> None:
    probe()


def start() -> None:
    """Begin a measured stretch: probe now and every ``PROBE_EVERY_S``."""
    global _factor
    _samples.clear()
    _factor = None
    probe()
    signal.signal(signal.SIGALRM, _on_timer)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)


def stop() -> float:
    """End the stretch (once; later calls repeat the answer) and return
    the factor from its CPU seconds to reference seconds."""
    global _factor
    if _factor is None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        probe()
        _factor = PROBE_REF_S / statistics.fmean(_samples)
    return _factor

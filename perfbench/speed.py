"""Op times as CPU seconds, corrected for the host's CPU speed.

The benchmark host is a shared virtual machine.  Two things there move op
times however the program does:

- The hypervisor takes the core away from time to time: on a 2-vCPU Xeon
  guest, steal reached 13% of a busy core for minutes at a time.  Stolen
  time counts in wall time but not in CPU time, so ops are timed in CPU
  seconds, their own process's plus those of the processes they wait for.
- The CPU speed drifts: on the same guest, one fixed pure-Python loop took
  anywhere from 0.57 to 0.99 CPU seconds within a minute.  So a short fixed
  kernel is timed before every op and after the last, and each op's time
  is scaled by REFERENCE_S over the median kernel time around it: that is
  the op's time at the speed where the kernel takes REFERENCE_S.

A change to the program moves the op time and not the kernel, so it shows
in full.  The program's time does not follow the kernel's exactly, so the
correction narrows the drift rather than removing it: on the same guest,
the total time of one fixed job list, run forty times over four minutes,
spread by 7.6% between its quartiles as measured and by 2.9% corrected.
"""
import gc
import resource
import statistics
import time

REFERENCE_S = 0.003
"""Kernel time at the steady speed of the 2-vCPU Xeon guest the benchmark
was written on, so corrected times read as wall seconds there."""

WINDOW = 4

_ORDER = [i * 7919 % 4001 for i in range(4000)]


def _kernel():
    # interpreted loops over tuple-keyed dicts and small frozensets, the
    # program's own kind of work, with a working set of a few hundred KB
    table = {}
    for i in _ORDER:
        table[(i, i & 7)] = i
    acc = 0
    for i in _ORDER:
        acc += table[(i, i & 7)]
    sets = []
    for i in range(700):
        fs = frozenset(range(i % 13, i % 13 + 6))
        sets.append((fs, sorted(fs, reverse=True)))
    return acc + len({fs for fs, _ in sets})


def cpu_seconds():
    """CPU seconds used so far by this process and by the child processes
    it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def probe():
    """CPU seconds the fixed kernel takes now.  The garbage collector is off
    meanwhile, so the probe does not depend on how much the process holds."""
    gc.disable()
    try:
        t = time.process_time()
        _kernel()
        return time.process_time() - t
    finally:
        gc.enable()


def scaled(seconds, probes):
    """`seconds` at the reference speed, by the median of `probes` taken
    around the time measured."""
    return seconds * REFERENCE_S / statistics.median(probes)


def corrected(times, probes):
    """`times` at the reference speed, where times[i] was measured between
    probes[i] and probes[i + 1].  Each is scaled by the median of the 2 *
    WINDOW probes nearest to it, so one disturbed probe does not count."""
    return [scaled(t, probes[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, t in enumerate(times)]

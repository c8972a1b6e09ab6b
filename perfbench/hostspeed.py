"""Host speed: a fixed reference computation timed between ops.

The benchmark runs on shared hosts whose speed drifts by 20-30% from one
minute to the next.  No average inside a run removes a drift that lasts
longer than the run, so the benchmark times a fixed computation in the same
process, between ops, and scales every measured time by ``NOMINAL_S / mean(reference samples around it)``.  A
scaled time is the time the op would take on a host where the reference
takes ``NOMINAL_S``; a change to miespec moves it, a slower minute of the
host does not.  The mean, not the median, because an op's time adds up the
host's slowness over its span.

The host switches between speeds about 1.7x apart within a second or two,
so the reference is sampled often (SHARE of the measured time, spread
evenly between ops) and each time is scaled by the samples within one op
length, at least MARGIN_S, on either side of it.

The reference mixes the kinds of work miespec's ops do: interpreter loops,
float formatting, dictionaries and small numpy kernels.  It never calls
miespec, so no change to miespec changes it.
"""

import bisect
import statistics
import time

import numpy

NOMINAL_S = 0.010  # about the reference's median on a 2-vCPU x86-64 VM
SHARE = 0.1        # reference time kept at about this share of op time
MARGIN_S = 0.5     # least reach of the sample window on either side

_DATA = numpy.random.default_rng(20140624).random(4000)


def reference():
    total = 0
    for i in range(40000):
        total += i * i % 7
    table = {i: repr(x) for i, x in enumerate(_DATA.tolist())}
    text = ",".join(table.values())
    for _ in range(40):
        total += int(numpy.sort(_DATA)[0] + (numpy.exp(-_DATA) * _DATA).sum())
    return total + len(text)


class HostSpeed:
    """Reference samples of one phase of a run, and the scale they give."""

    def __init__(self):
        self.samples = []  # reference wall times, in the order taken
        self.times = []    # perf_counter at the middle of each sample
        reference()  # warm-up, not kept

    def sample(self):
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.times.append((start + end) / 2)

    def keep_up(self, measured_s):
        """Sample until the reference has taken SHARE of ``measured_s``, the
        time measured so far: called after every op, this spreads the
        samples evenly over the run whatever the op length."""
        while not self.samples or sum(self.samples) < SHARE * measured_s:
            self.sample()

    def scale(self, start, end):
        """Factor from this host's wall time to nominal-host time, for a
        span measured from ``start`` to ``end`` (perf_counter)."""
        reach = max(end - start, MARGIN_S)
        lo = bisect.bisect_left(self.times, start - reach)
        hi = bisect.bisect_right(self.times, end + reach)
        return NOMINAL_S / statistics.fmean(self.samples[lo:hi] or self.samples)

    def describe(self):
        med = statistics.median(self.samples)
        return (f"reference median {med * 1e3:.2f} ms over {len(self.samples)} "
                f"samples, {min(self.samples) * 1e3:.2f}-"
                f"{max(self.samples) * 1e3:.2f}")

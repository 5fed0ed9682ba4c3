"""Work timing that holds still on a host whose speed drifts.

The timed work is cut into short segments at deterministic points (every
N-th call of a chosen public function, plus the workload's own stage
boundaries).  Between segments a frozen calibration kernel is timed.  The
kernel does what the program spends its time on, small-array NumPy calls
from the interpreter, so its time follows the host's speed.  Each segment is
scaled by the kernel's reference time over its local median, which gives
the segment's time on a host running at the reference speed.
"""

import time

import numpy as np

from tracer import rebind

# kernel time at the reference host speed; frozen so that work_s stays
# comparable between commits
CAL_REF_S = 0.0080
# Set-up is mostly importing NumPy and SciPy, and it does not follow the
# kernel: it is scaled instead by a fresh interpreter importing the same
# libraries, whose reference time is frozen here.
LIBRARY_IMPORT = "import numpy, scipy.integrate, scipy.optimize"
LIBRARY_IMPORT_REF_S = 0.75
# calibration samples on each side of a segment in its local median
CAL_WINDOW = 3

_rng = np.random.default_rng(20240917)
_X = _rng.standard_normal((51, 3))
_Y = _rng.standard_normal((51, 3))
_R = _rng.standard_normal((3, 3))


def kernel():
    """Frozen calibration work: ~1k small-array NumPy calls."""
    a = _X
    for _ in range(160):
        b = a @ _R
        c = np.cross(b, _Y)
        a = _X + 1e-3 * np.einsum("ki,ij->kj", c, _R)
        d = np.where(a > 0.0, a, -a).sum(axis=0)
    return d


class Meter:
    """Segment clock of one timed repetition."""

    def __init__(self):
        self.segments = []  # seconds of work per segment
        self.cal = []  # kernel seconds: one before each segment, one after the last
        self._t = None

    def _calibrate(self):
        start = time.perf_counter()
        kernel()
        self.cal.append(time.perf_counter() - start)

    def begin(self):
        self._calibrate()
        self._t = time.perf_counter()

    def tick(self):
        """Close the running segment and open the next one."""
        now = time.perf_counter()
        self.segments.append(now - self._t)
        self._calibrate()
        self._t = time.perf_counter()

    def pulse(self, fn, every: int):
        """``fn`` wrapped to tick after every ``every``-th call."""
        count = [0]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count[0] += 1
            if count[0] % every == 0:
                self.tick()
            return result

        return wrapper

    def pulse_function(self, fn, every: int) -> list:
        """Tick every ``every`` calls of a public function; return the undo list."""
        return rebind(fn, self.pulse(fn, every))

    def record(self) -> dict:
        return {"segments": self.segments, "cal": self.cal}


def calibrated_segments(record: dict) -> list:
    """Each segment's time scaled to the reference host speed."""
    cal = np.asarray(record["cal"])
    out = []
    for i, seconds in enumerate(record["segments"]):
        window = cal[max(0, i + 1 - CAL_WINDOW): i + 1 + CAL_WINDOW]
        out.append(seconds * CAL_REF_S / float(np.median(window)))
    return out


def work_seconds(records: list) -> float:
    """Median over the repetitions of the calibrated work time.

    The median, not the fastest: the fastest of k noisy repetitions drifts
    down as k grows, and the number of repetitions that fit in a run
    depends on the host's speed.
    """
    return float(np.median([sum(calibrated_segments(r)) for r in records]))


def setup_seconds(pairs: list) -> float:
    """Median set-up time at the reference import speed.

    ``pairs`` holds (set-up seconds, seconds of a LIBRARY_IMPORT process
    started just before it).
    """
    return float(np.median([s * LIBRARY_IMPORT_REF_S / lib for s, lib in pairs]))

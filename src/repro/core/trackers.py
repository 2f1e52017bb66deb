"""Bit-vector history windows (paper section 5.1).

Quetzal's software library tracks two run-time statistics with fixed-size
bit-vectors and O(1) one-counters:

* **task execution probability** — a ``<task-window>``-bit vector per task;
  a 1 means the task executed for a given (completely processed) input.
  The fraction of 1s is the scheduler's estimate of the task's execution
  probability (Alg. 1's ``getProbability``).
* **input arrival rate** — an ``<arrival-window>``-bit vector over recent
  captures; a 1 means the capture passed the differencing filter and was
  destined for the input buffer.  The fraction of 1s times the capture rate
  is the Little's-Law arrival rate λ.

The paper's defaults are ``<task-window>=64`` and ``<arrival-window>=256``
(Table 1), swept in Figure 14.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError

__all__ = ["BitVectorWindow", "ArrivalRateTracker", "ExecutionProbabilityTracker"]


class BitVectorWindow:
    """A fixed-capacity sliding window of bits with an O(1) one-counter.

    Mirrors the firmware structure: appending a bit evicts the oldest once
    the window is full, and the one-counter is updated only on modification
    (section 5.1: "a 1-counter ... updated only when the bit-vector is
    modified").
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"window size must be >= 1, got {size}")
        self._size = size
        self._bits: deque[bool] = deque(maxlen=size)
        self._ones = 0

    @property
    def size(self) -> int:
        """Window capacity in bits."""
        return self._size

    @property
    def filled(self) -> int:
        """Number of bits recorded so far (saturates at ``size``)."""
        return len(self._bits)

    @property
    def ones(self) -> int:
        """Current one-counter value."""
        return self._ones

    def append(self, bit: bool) -> None:
        """Record one observation, evicting the oldest if full."""
        bit = bool(bit)
        if len(self._bits) == self._size and self._bits[0]:
            self._ones -= 1
        self._bits.append(bit)
        if bit:
            self._ones += 1

    def fraction(self, default: float = 0.0) -> float:
        """Fraction of 1s among recorded bits (``default`` if empty)."""
        if not self._bits:
            return default
        return self._ones / len(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVectorWindow(size={self._size}, ones={self._ones}/{len(self._bits)})"


class ArrivalRateTracker:
    """Estimates the input arrival rate λ (inputs/second).

    Records, for each periodic capture, whether the input was stored (i.e.
    passed pre-filtering and headed for the buffer).  λ is the stored
    fraction divided by the capture period.
    """

    def __init__(self, window_size: int = 256, capture_period_s: float = 1.0) -> None:
        if capture_period_s <= 0:
            raise ConfigurationError(
                f"capture_period_s must be positive, got {capture_period_s}"
            )
        self.window = BitVectorWindow(window_size)
        self.capture_period_s = capture_period_s

    def record_capture(self, stored: bool) -> None:
        """Record one capture and whether it entered (or aimed for) the buffer."""
        self.window.append(stored)

    def rate(self) -> float:
        """Current λ estimate in inputs per second.

        Before any capture is observed the estimate is 0 (an idle scene),
        matching a device that boots into inactivity.
        """
        return self.window.fraction(default=0.0) / self.capture_period_s


class ExecutionProbabilityTracker:
    """Per-task execution-probability windows.

    On each *job completion* the engine atomically appends one bit per task
    of that job: 1 if the task executed for this input, 0 otherwise
    (section 5.1).  Tasks never observed fall back to their configured
    default probability.
    """

    def __init__(self, window_size: int = 64) -> None:
        if window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
        self._window_size = window_size
        self._windows: dict[str, BitVectorWindow] = {}

    @property
    def window_size(self) -> int:
        return self._window_size

    def record(self, task_name: str, executed: bool) -> None:
        """Append one observation for ``task_name``."""
        window = self._windows.get(task_name)
        if window is None:
            window = BitVectorWindow(self._window_size)
            self._windows[task_name] = window
        window.append(executed)

    def record_job(self, executed_by_task: dict[str, bool]) -> None:
        """Atomically record a completed job's per-task execution bits."""
        # `self.record` inlined: this runs once per completed job.
        windows = self._windows
        for task_name, executed in executed_by_task.items():
            window = windows.get(task_name)
            if window is None:
                window = windows[task_name] = BitVectorWindow(self._window_size)
            window.append(executed)

    def probability(self, task_name: str, default: float = 1.0) -> float:
        """Execution-probability estimate for ``task_name``."""
        window = self._windows.get(task_name)
        if window is None or window.filled == 0:
            return default
        return window.fraction()

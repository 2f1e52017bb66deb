"""PID controller for mitigating service-time prediction error.

Quetzal predicts per-job E[S] from historical values and corrects the
prediction with a PID controller (paper section 4.3): the error is the
difference between *observed* and *predicted* E[S]; the PID output is added
to future predictions.  A positive error (jobs ran longer than predicted)
inflates future E[S] and makes degradation more likely; a negative error
lets the device hold quality longer.

The implementation follows the classic form the paper cites (pms67's C PID
[69]): proportional on current error, trapezoidal integrator with
anti-windup clamping, band-limited derivative on the error signal.  Table 1
gives the constants used in the paper's experiments: Kp=5e-6, Ki=1e-6,
Kd=1.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = ["PIDController"]


class PIDController:
    """A discrete PID controller with anti-windup and derivative filtering.

    Parameters
    ----------
    kp, ki, kd:
        Controller gains (paper defaults from Table 1).
    output_limits:
        Optional (low, high) clamp on the controller output; the integrator
        is clamped to the same band to prevent windup.
    derivative_tau_s:
        Time constant of the first-order filter applied to the derivative
        term, suppressing noise amplification (0 disables filtering).
    """

    def __init__(
        self,
        kp: float = 5e-6,
        ki: float = 1e-6,
        kd: float = 1.0,
        output_limits: tuple[float, float] | None = None,
        derivative_tau_s: float = 0.0,
    ) -> None:
        for name, gain in (("kp", kp), ("ki", ki), ("kd", kd)):
            if gain < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {gain}")
        if output_limits is not None and output_limits[0] > output_limits[1]:
            raise ConfigurationError(f"invalid output_limits {output_limits}")
        if derivative_tau_s < 0:
            raise ConfigurationError("derivative_tau_s must be non-negative")
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.output_limits = output_limits
        self.derivative_tau_s = derivative_tau_s
        self.reset()

    def reset(self) -> None:
        """Clear all controller state."""
        self._integral = 0.0
        self._previous_error: float | None = None
        self._derivative = 0.0
        self._output = 0.0

    @property
    def output(self) -> float:
        """Most recent controller output (0 before any update)."""
        return self._output

    def update(self, error: float, dt_s: float) -> float:
        """Advance the controller with a new error sample.

        Parameters
        ----------
        error:
            ``observed - predicted`` service time for the just-completed
            job (seconds).
        dt_s:
            Time since the previous sample (seconds, > 0).

        Returns the new controller output, which callers add to future
        E[S] predictions.
        """
        if not math.isfinite(error):
            raise ConfigurationError(f"error must be finite, got {error}")
        if dt_s <= 0:
            raise ConfigurationError(f"dt_s must be positive, got {dt_s}")

        proportional = self.kp * error

        self._integral += 0.5 * self.ki * dt_s * (
            error + (self._previous_error if self._previous_error is not None else error)
        )
        if self.output_limits is not None:
            low, high = self.output_limits
            self._integral = min(max(self._integral, low), high)

        if self._previous_error is None:
            raw_derivative = 0.0
        else:
            raw_derivative = (error - self._previous_error) / dt_s
        if self.derivative_tau_s > 0:
            alpha = dt_s / (self.derivative_tau_s + dt_s)
            self._derivative += alpha * (raw_derivative - self._derivative)
        else:
            self._derivative = raw_derivative

        output = proportional + self._integral + self.kd * self._derivative
        if self.output_limits is not None:
            low, high = self.output_limits
            output = min(max(output, low), high)

        self._previous_error = error
        self._output = output
        return output

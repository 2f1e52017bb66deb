"""End-to-end tests of the power-measurement circuit model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareModelError
from repro.hardware.circuit import CircuitConfig, PowerMonitor
from repro.hardware.ratio import DivisionFreeServiceTime


class TestCodes:
    def test_higher_power_higher_code(self):
        monitor = PowerMonitor()
        codes = [monitor.code_for_power(p) for p in (1e-3, 10e-3, 100e-3, 300e-3)]
        assert codes == sorted(codes)
        assert codes[0] < codes[-1]

    def test_zero_power_measurable(self):
        # The bias current keeps the diode conducting at zero harvest.
        monitor = PowerMonitor()
        assert monitor.measure_input_power(0.0) >= 0

    def test_profile_and_measure_agree(self):
        monitor = PowerMonitor()
        assert monitor.profile_execution_power(0.05) == monitor.measure_input_power(0.05)

    def test_negative_power_rejected(self):
        with pytest.raises(HardwareModelError):
            PowerMonitor().measure_input_power(-1.0)


class TestEndToEndRatioAccuracy:
    @pytest.mark.parametrize("p_exe_w,p_in_w", [
        (0.300, 0.050),
        (0.300, 0.010),
        (0.010, 0.002),
        (0.100, 0.090),
        (0.020, 0.005),
    ])
    def test_ratio_error_moderate(self, p_exe_w, p_in_w):
        """Full pipeline (diode -> ADC -> Alg. 3) tracks the true ratio.

        Tolerance combines quantisation (half an LSB is ~9 % of a ratio
        step) and the 1/8-coefficient temperature error, evaluated at the
        default 35 degC operating point.
        """
        monitor = PowerMonitor()
        t_exe = 1.0
        firmware = DivisionFreeServiceTime(
            t_exe, monitor.profile_execution_power(p_exe_w)
        )
        estimated = firmware.service_time(monitor.measure_input_power(p_in_w))
        exact = t_exe * max(1.0, monitor.exact_ratio(p_exe_w, p_in_w))
        assert estimated == pytest.approx(exact, rel=0.35)

    def test_execution_dominated_is_exact(self):
        monitor = PowerMonitor()
        firmware = DivisionFreeServiceTime(2.0, monitor.profile_execution_power(0.01))
        # Input power far above execution power: S = t_exe exactly.
        assert firmware.service_time(monitor.measure_input_power(0.30)) == 2.0

    @given(
        p_exe=st.floats(1e-3, 0.5),
        ratio=st.floats(1.0, 100.0),
    )
    @settings(max_examples=60)
    def test_estimate_within_factor_two(self, p_exe, ratio):
        """Even across the band, the log-domain estimate stays near truth."""
        monitor = PowerMonitor()
        p_in = p_exe / ratio
        firmware = DivisionFreeServiceTime(1.0, monitor.profile_execution_power(p_exe))
        estimated = firmware.service_time(monitor.measure_input_power(p_in))
        exact = max(1.0, monitor.exact_ratio(p_exe, p_in))
        assert exact / 2 <= estimated <= exact * 2


class TestTemperature:
    def test_with_temperature_copies(self):
        monitor = PowerMonitor()
        hot = monitor.with_temperature(50.0)
        assert hot.config.temperature_c == 50.0
        assert monitor.config.temperature_c == 35.0

    def test_codes_shift_with_temperature(self):
        cold = PowerMonitor().with_temperature(25.0)
        hot = PowerMonitor().with_temperature(50.0)
        assert cold.code_for_power(0.1) != hot.code_for_power(0.1)

    @pytest.mark.parametrize("temp_c", range(25, 51, 5))
    def test_algorithm3_within_one_octave(self, temp_c):
        """Algorithm 3's service time across the 25-50 C band at realistic
        powers: within one binary order of magnitude of the exact ratio."""
        monitor = PowerMonitor().with_temperature(temp_c)
        for p_exe, p_in in ((0.3, 0.05), (0.3, 0.01), (0.01, 0.004)):
            firmware = DivisionFreeServiceTime(
                1.0, monitor.profile_execution_power(p_exe)
            )
            estimate = firmware.service_time(monitor.measure_input_power(p_in))
            exact = max(1.0, monitor.exact_ratio(p_exe, p_in))
            assert abs(math.log2(estimate / exact)) < 1.0, (p_exe, p_in)


class TestConfigValidation:
    def test_rejects_bad_measurement_voltage(self):
        with pytest.raises(HardwareModelError):
            CircuitConfig(measurement_voltage_v=0.0)

    def test_rejects_bad_bias(self):
        with pytest.raises(HardwareModelError):
            CircuitConfig(bias_current_a=0.0)

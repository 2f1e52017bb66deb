"""Tests for the supercapacitor model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.storage import Supercapacitor
from repro.errors import ConfigurationError, SimulationError


class TestConstruction:
    def test_paper_capacity(self):
        cap = Supercapacitor()
        assert cap.capacity_j == pytest.approx(0.126225)

    def test_starts_full_by_default(self):
        cap = Supercapacitor()
        assert cap.fraction == pytest.approx(1.0)

    def test_initial_fraction(self):
        cap = Supercapacitor(initial_fraction=0.25)
        assert cap.energy_j == pytest.approx(0.25 * cap.capacity_j)

    def test_rejects_inverted_band(self):
        with pytest.raises(ConfigurationError):
            Supercapacitor(v_operating=1.0, v_brownout=2.0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            Supercapacitor(restart_fraction=0.0)
        with pytest.raises(ConfigurationError):
            Supercapacitor(initial_fraction=1.5)


class TestHarvestDraw:
    def test_draw_reduces_energy(self):
        cap = Supercapacitor()
        before = cap.energy_j
        cap.draw(0.01)
        assert cap.energy_j == pytest.approx(before - 0.01)

    def test_harvest_clamps_at_capacity(self):
        cap = Supercapacitor()
        stored = cap.harvest(1.0)
        assert stored == pytest.approx(0.0)
        assert cap.energy_j == pytest.approx(cap.capacity_j)

    def test_harvest_returns_stored_amount(self):
        cap = Supercapacitor(initial_fraction=0.5)
        stored = cap.harvest(0.01)
        assert stored == pytest.approx(0.01)

    def test_partial_clamp(self):
        cap = Supercapacitor(initial_fraction=0.99)
        headroom = cap.headroom_j
        stored = cap.harvest(headroom + 1.0)
        assert stored == pytest.approx(headroom)

    def test_overdraw_raises(self):
        cap = Supercapacitor(initial_fraction=0.1)
        with pytest.raises(SimulationError):
            cap.draw(cap.energy_j + 1e-3)

    def test_tiny_float_residue_clamped(self):
        cap = Supercapacitor()
        cap.draw(cap.energy_j + 1e-15)
        assert cap.energy_j == 0.0
        assert cap.is_depleted

    def test_negative_amounts_rejected(self):
        cap = Supercapacitor()
        with pytest.raises(SimulationError):
            cap.draw(-1.0)
        with pytest.raises(SimulationError):
            cap.harvest(-1.0)


class TestRestartThreshold:
    def test_deficit_when_depleted(self):
        cap = Supercapacitor(initial_fraction=0.0, restart_fraction=0.5)
        assert cap.deficit_to_restart_j() == pytest.approx(0.5 * cap.capacity_j)

    def test_no_deficit_above_threshold(self):
        cap = Supercapacitor(initial_fraction=0.9, restart_fraction=0.5)
        assert cap.deficit_to_restart_j() == 0.0

    def test_set_energy(self):
        cap = Supercapacitor()
        cap.set_energy(0.05)
        assert cap.energy_j == 0.05
        with pytest.raises(SimulationError):
            cap.set_energy(cap.capacity_j * 2)


class TestInvariants:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["harvest", "draw"]), st.floats(0.0, 0.2)),
            max_size=50,
        )
    )
    @settings(max_examples=100)
    def test_energy_always_within_bounds(self, ops):
        cap = Supercapacitor(initial_fraction=0.5)
        for kind, amount in ops:
            if kind == "harvest":
                cap.harvest(amount)
            else:
                cap.draw(min(amount, cap.energy_j))
            assert 0.0 <= cap.energy_j <= cap.capacity_j + 1e-12

    @given(
        initial=st.floats(0.0, 1.0),
        amount=st.one_of(
            st.floats(0.0, 0.2), st.floats(0.0, 1e-6), st.floats(0.0, 1e3)
        ),
    )
    @settings(max_examples=300)
    def test_harvest_returns_exactly_what_it_stored(self, initial, amount):
        # Exact, not approx: a one-ulp error in the return value would be
        # rounded away where the engine accumulates it.
        cap = Supercapacitor(initial_fraction=initial)
        before, headroom = cap.energy_j, cap.headroom_j
        stored = cap.harvest(amount)
        assert stored == min(amount, headroom)
        assert cap.energy_j == before + stored

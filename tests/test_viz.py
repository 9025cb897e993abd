"""Tests for the terminal visualisation helpers."""

import numpy as np
import pytest

from repro.viz import ascii_spectrum


class TestSpectrum:
    def test_peak_reaches_the_top_row(self):
        freqs = np.linspace(10, 100, 200)
        amp = np.ones(200)
        amp[100] = 50.0
        art = ascii_spectrum(freqs, amp, rows=8, cols=40)
        lines = art.splitlines()
        assert "#" in lines[0]  # the tallest column spans all rows
        assert lines[-1].startswith("10 Hz")
        assert lines[-1].rstrip().endswith("100 Hz")

    def test_flat_spectrum_fills_uniformly(self):
        freqs = np.linspace(1, 10, 50)
        art = ascii_spectrum(freqs, np.ones(50), rows=4, cols=25)
        top = art.splitlines()[0]
        assert top.count("#") == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_spectrum([], [])
        with pytest.raises(ValueError):
            ascii_spectrum([1.0, 2.0], [1.0])


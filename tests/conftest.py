import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import mesocat as mc

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def flat_band_201():
    """Canonical flat band: gamma = 1, 201 modes, half-bandwidth 50."""
    return mc.discretize_flat_band(1.0, 201, 50.0)


@pytest.fixture(scope="session")
def resonant_single_mode():
    """One bath mode exactly on resonance, coupling 0.7."""
    return mc.BathSpec(np.array([0.0]), np.array([0.7]), target_gamma=1.0)

import functools
import operator
import sys

import hypothesis
import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import constants_from_module

import mesocat as mc
import mesocat.cli  # noqa: F401  (with what it imports: every module of src/mesocat but __main__)
import reference

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
settings.load_profile("suite")

# Hypothesis draws about 5% of its choices from the constants of the local modules
# loaded so far, and widens that pool whenever more load, so the examples a test drew
# depended on which test files were selected and in what order.  The pool is fixed to
# the constants of the library and the test reference, gathered at the first draw
# into Hypothesis's own (sorted, still empty) pool.
# The patch names Hypothesis internals: if they move, it would silently patch nothing.
_INSTALLED = f"installed Hypothesis {hypothesis.__version__}"
if not callable(getattr(providers, "_get_local_constants", None)):
    raise RuntimeError(f"{_INSTALLED} has no providers._get_local_constants to fix")
_READER = getattr(vars(providers.HypothesisProvider).get("_local_constants"), "func", None)
if "_get_local_constants" not in getattr(getattr(_READER, "__code__", None), "co_names", ()):
    raise RuntimeError(f"{_INSTALLED}: HypothesisProvider._local_constants no longer "
                       "reads providers._get_local_constants")
_POOL_MODULES = sorted(
    (m for name, m in sys.modules.items() if name.split(".")[0] == "mesocat"), key=lambda m: m.__name__
) + [reference]
_EMPTY_POOL = providers._local_constants


@functools.cache
def _fixed_local_constants():
    return functools.reduce(operator.or_, map(constants_from_module, _POOL_MODULES), _EMPTY_POOL)


providers._get_local_constants = _fixed_local_constants


@pytest.fixture(scope="session")
def flat_band_201():
    """Canonical flat band: gamma = 1, 201 modes, half-bandwidth 50; read-only, as it is shared."""
    return _read_only(mc.discretize_flat_band(1.0, 201, 50.0))


@pytest.fixture(scope="session")
def resonant_single_mode():
    """One bath mode exactly on resonance, coupling 0.7; read-only, as it is shared."""
    return _read_only(np.array([[0.0], [0.7]]))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array

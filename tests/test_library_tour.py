"""The values the README's library tour prints in its comments."""

import math

import pytest

from minsyn import (DiscreteJoint, GaussianSystem, discrete_ci_synergy, gaussian_ci_synergy,
                    gk_synergy)


def test_library_tour_values():
    sys_ = GaussianSystem.pair(0.5, 0.75, -0.10)
    assert gk_synergy(sys_) == pytest.approx(0.7206, abs=5e-5)
    assert gaussian_ci_synergy(sys_) == pytest.approx(0.4452, abs=5e-5)
    assert discrete_ci_synergy(DiscreteJoint.xor()) == pytest.approx(math.log(2), abs=1e-12)

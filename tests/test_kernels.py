import numpy as np
import pytest

from simd2nn import kernels
from simd2nn.errors import DomainError


@pytest.mark.filterwarnings("error")
def test_coincident_points_rejected():
    # the DomainError must come before any divide-by-zero RuntimeWarning
    src = np.zeros((1, 3))
    dst = np.zeros((2, 3))
    dst[1, 2] = 0.0125
    with pytest.raises(DomainError):
        kernels.coupling_matrix(src, dst, 0.0125, 0.0125, 0.025)


def test_matches_scalar_coefficient():
    from simd2nn.propagation import diffraction_coefficient

    src = np.array([[0.0, 0.0, 0.0]])
    dst = np.array([[0.0125, 0.0, 0.0125]])
    out = kernels.coupling_matrix(src, dst, 0.0125, 0.0125, 0.025)
    d = np.sqrt(2) * 0.0125
    expected = diffraction_coefficient(d, 0.0125 / d, 0.0125, 0.0125, 0.025)
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)

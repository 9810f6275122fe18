"""Free-space coupling coefficients: the one place the formula is evaluated.

The coefficient for one source/destination pair is

    w = (d_x d_y cos(chi) / d) * (1/(2 pi d) - j/lambda) * exp(j 2 pi d / lambda)

with d the pair distance and chi the angle from the layer normal (the
Rayleigh-Sommerfeld step of diffractive networks). The pairwise matrix
between two point sets is M x M evaluations per geometry, broadcast in numpy.
"""

import numpy as np

from .errors import DomainError

_TWO_PI = 2.0 * np.pi


def diffraction_coefficient(distance, cos_angle, pitch_x, pitch_y, wavelength):
    """Field-transfer coefficient, broadcast over ``distance`` and ``cos_angle``.

    Scalar arguments give a scalar complex; arrays give a complex128 array.
    """
    if np.any(distance <= 0.0):
        raise DomainError("distance must be positive (coincident source/destination points)")
    if wavelength <= 0.0:
        raise DomainError(f"wavelength must be positive, got {wavelength}")
    amp = (pitch_x * pitch_y) * cos_angle / distance
    radial = amp / (_TWO_PI * distance) - 1j * (amp / wavelength)
    return radial * np.exp(1j * (_TWO_PI / wavelength) * distance)


def coupling_matrix(src_xyz, dst_xyz, pitch_x, pitch_y, wavelength):
    """Pairwise coupling coefficients between two point sets.

    src_xyz: (n_src, 3) float64 positions in meters.
    dst_xyz: (n_dst, 3) float64 positions in meters.
    Returns (n_dst, n_src) complex128: rows index destinations so the
    forward pass is matrix @ field.
    """
    diff = dst_xyz[:, None, :] - src_xyz[None, :, :]
    dist = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2)
    # reject coincident points before cos(chi) divides by their zero distance
    if np.any(dist <= 0.0):
        raise DomainError("coincident source/destination points (distance <= 0)")
    cos_ang = np.abs(diff[..., 2]) / dist
    return diffraction_coefficient(dist, cos_ang, pitch_x, pitch_y, wavelength)

"""Downlink model: Rician fading, path loss, and receiver noise.

Power bookkeeping uses a single linear amplitude scale for the transmit
signal and the noise, amplitude = 10**((dBm - 30) / 20); the classifier and
loss are power-scale covariant, so only the dB budget P_t - PL - sigma^2
matters and the shared reference constant cancels.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class ChannelConfig:
    carrier_freq: float = 12e9
    distance: float = 1000.0
    rician_k_db: float = 20.0
    atmospheric_loss_db: float = 0.0
    environment_loss_db: float = 0.0
    noise_power_dbm: float = -104.0
    tx_power_dbm: float = 20.0
    num_rx_antennas: int = 2

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.num_rx_antennas < 2:
            raise ConfigurationError(
                f"num_rx_antennas must be >= 2 (one per class), got {self.num_rx_antennas}"
            )
        if self.carrier_freq <= 0 or self.distance <= 0:
            raise ConfigurationError("carrier_freq and distance must be positive")


@dataclass(frozen=True)
class ChannelRealization:
    """One fixed draw of the downlink: scaled fading matrix plus noise level."""

    h_matrix: np.ndarray  # (K, M) complex, includes path-loss amplitude
    noise_sigma: float    # linear amplitude units shared with the tx scale


def fspl_db(distance: float, freq: float) -> float:
    """Free-space path loss, 20 log10(f) + 20 log10(d) - 147.55."""
    if distance <= 0.0:
        raise DomainError(f"distance must be positive, got {distance}")
    if freq <= 0.0:
        raise DomainError(f"frequency must be positive, got {freq}")
    return 20.0 * math.log10(freq) + 20.0 * math.log10(distance) - 147.55


def path_loss_db(cfg: ChannelConfig) -> float:
    return fspl_db(cfg.distance, cfg.carrier_freq) + cfg.atmospheric_loss_db + cfg.environment_loss_db


def dbm_to_amplitude(dbm: float) -> float:
    """Shared linear amplitude scale (1 W <-> amplitude 1)."""
    return 10.0 ** ((dbm - 30.0) / 20.0)


def sample_small_scale(k_factor_db: float, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Rician small-scale fading with unit mean power.

    LoS part is all-ones; the NLoS part is i.i.d. standard circularly
    symmetric complex Gaussian (real drawn before imaginary).
    """
    kappa = 10.0 ** (k_factor_db / 10.0)
    nlos = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return np.sqrt(kappa / (kappa + 1.0)) + np.sqrt(1.0 / (kappa + 1.0)) * nlos


def sample_rician(cfg: ChannelConfig, m: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw H = alpha * H_ss for an M-atom final layer and K antennas."""
    cfg.validate()
    h_ss = sample_small_scale(cfg.rician_k_db, (cfg.num_rx_antennas, m), rng)
    alpha = 10.0 ** (-path_loss_db(cfg) / 20.0)
    return ChannelRealization(
        h_matrix=alpha * h_ss,
        noise_sigma=dbm_to_amplitude(cfg.noise_power_dbm),
    )


def add_awgn(signal: np.ndarray, noise_sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add circularly symmetric noise of total per-component variance sigma^2."""
    if noise_sigma < 0.0:
        raise DomainError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if noise_sigma == 0.0:
        return signal.copy()
    scale = noise_sigma / np.sqrt(2.0)
    noise = scale * rng.standard_normal(signal.shape) + 1j * scale * rng.standard_normal(signal.shape)
    return signal + noise


@dataclass(frozen=True)
class ChannelState:
    """Config plus the block-fading realization held fixed for an experiment."""

    cfg: ChannelConfig
    realization: ChannelRealization

    @property
    def tx_amplitude(self) -> float:
        return dbm_to_amplitude(self.cfg.tx_power_dbm)


def realize_channel(cfg: ChannelConfig, m: int, rng: np.random.Generator) -> ChannelState:
    return ChannelState(cfg=cfg, realization=sample_rician(cfg, m, rng))

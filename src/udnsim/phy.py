"""Physical-layer and queueing primitives.

Link rates follow the interference-limited Shannon form
``r = bandwidth * log2(1 + p * gain / (interference + noise))``; biased-up
transmit power ``p + circuit_power`` is the energy actually drawn, and the
instantaneous energy efficiency is their ratio.  Queues hold bits, are served
once per slot up to what the link offers, and drop at the capacity wall only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

LN2 = math.log(2.0)


def dbm_to_watts(dbm: float) -> float:
    """Convert a dBm figure to linear Watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class PhyParams:
    """Radio constants shared by the solver, scheduler and simulator.

    bandwidth_hz     channel bandwidth (omega), Hz
    noise_dbm        thermal noise power, dBm (converted once to Watts)
    max_power_w      transmit power ceiling, W
    circuit_power_w  always-on circuit draw added to radiated power, W
    sbs_density      interference coupling constant (eta): mean total
                     cross-link gain at a UE after serving-gain normalization
    """

    bandwidth_hz: float = 1e6
    noise_dbm: float = -70.0
    max_power_w: float = 1.0
    circuit_power_w: float = 1.0
    sbs_density: float = 0.25

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ConfigError("bandwidth_hz must be positive and finite")
        if not (math.isfinite(self.noise_dbm) and self.noise_dbm < 3110):
            raise ConfigError("noise_dbm must be finite and below 3110 dBm (1e308 W)")
        if not (math.isfinite(self.max_power_w) and self.max_power_w > 0):
            raise ConfigError("max_power_w must be positive and finite")
        if not (math.isfinite(self.circuit_power_w) and self.circuit_power_w > 0):
            raise ConfigError("circuit_power_w must be positive and finite")
        if not (math.isfinite(self.sbs_density) and self.sbs_density >= 0):
            raise ConfigError("sbs_density must be nonnegative and finite")

    @property
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)


@dataclass(frozen=True)
class QueueParams:
    """Traffic constants: mean arrival rate, queue capacity in whole bits, slot length."""

    arrival_rate_bps: float = 200e3
    capacity_bits: float = 2e6
    slot_duration_s: float = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.arrival_rate_bps) and self.arrival_rate_bps >= 0):
            raise ConfigError("arrival_rate_bps must be nonnegative and finite")
        if not (math.isfinite(self.capacity_bits) and self.capacity_bits > 0):
            raise ConfigError("capacity_bits must be positive and finite")
        if self.capacity_bits != math.floor(self.capacity_bits):
            raise ConfigError("capacity_bits must be a whole number of bits")
        if not (math.isfinite(self.slot_duration_s) and self.slot_duration_s > 0):
            raise ConfigError("slot_duration_s must be positive and finite")


def instantaneous_rate(power_w, gain, interference_w, phy: PhyParams, noise_w):
    """Shannon rate in bits/s; accepts scalars or arrays.

    gain, interference and noise_w must share one normalization: Watts with
    phy.noise_w, or a deployment's normalized units with its noise_norm.
    """
    power_w = np.asarray(power_w, dtype=float)
    sinr = power_w * np.asarray(gain, dtype=float) / (
        np.asarray(interference_w, dtype=float) + noise_w
    )
    return phy.bandwidth_hz * np.log1p(sinr) / LN2


def queue_step(q_bits, arrival_bits, offered_bits, queue: QueueParams):
    """One slot of queue dynamics under offered_bits (>= 0) of service.

    Returns (q_next, served, dropped): ``served = min(q + arrivals, offered)``
    and arrivals beyond capacity (in the queue's dtype) are dropped, so
    ``q_next = min(cap, q + arrivals - served)`` and
    ``dropped = max(0, q + arrivals - served - cap)``.
    """
    total = np.asarray(q_bits) + np.asarray(arrival_bits)
    served = np.minimum(total, offered_bits)
    after = total - served
    dropped = np.maximum(after - np.asarray(queue.capacity_bits, dtype=after.dtype), 0)
    return after - dropped, served, dropped


def sample_arrivals(rng: np.random.Generator, queue: QueueParams, n=None):
    """Poisson arrivals (bits) per UE and slot, mean arrival_rate * slot.

    n is a UE count or a shape; the draws fill it in C order, so a
    (slots, n_ue) block is the same stream as one draw per slot."""
    lam = queue.arrival_rate_bps * queue.slot_duration_s
    return rng.poisson(lam, size=n)


@dataclass(frozen=True)
class PathlossModel:
    """Log-distance pathloss with optional log-normal shadowing.

    PL(d) = ref_loss_db + 10 * exponent * log10(d / 1 km), in dB.
    The default reproduces the common small-cell curve
    140.7 + 36.7 log10(d_km).  Distances below min_distance_m are floored.
    """

    ref_loss_db: float = 140.7
    exponent: float = 3.67
    shadowing_std_db: float = 8.0
    min_distance_m: float = 3.0

    def __post_init__(self):
        if not math.isfinite(self.ref_loss_db):
            raise ConfigError("ref_loss_db must be finite")
        if not (math.isfinite(self.exponent) and self.exponent > 0):
            raise ConfigError("exponent must be positive and finite")
        if not (math.isfinite(self.min_distance_m) and self.min_distance_m > 0):
            raise ConfigError("min_distance_m must be positive and finite")
        if not (math.isfinite(self.shadowing_std_db) and self.shadowing_std_db >= 0):
            raise ConfigError("shadowing_std_db must be nonnegative and finite")


def pathloss_gain(distance_m, model: PathlossModel = PathlossModel(), rng: np.random.Generator | None = None):
    """Linear power gain over the given distance(s) in meters.

    With an rng, one log-normal shadowing draw per entry is applied; without,
    the gain is deterministic.  The steps run in place on one copy of the
    distances, so the input is left unchanged and a scalar returns a scalar.
    """
    pl_db = np.array(distance_m, dtype=float)
    np.maximum(pl_db, model.min_distance_m, out=pl_db)
    pl_db /= 1e3
    np.log10(pl_db, out=pl_db)
    pl_db *= 10.0 * model.exponent
    pl_db += model.ref_loss_db
    if rng is not None and model.shadowing_std_db > 0:
        pl_db += rng.normal(0.0, model.shadowing_std_db, size=pl_db.shape)
    np.negative(pl_db, out=pl_db)
    pl_db /= 10.0
    return np.power(10.0, pl_db, out=pl_db)[()]

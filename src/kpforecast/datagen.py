"""Synthetic storm-time measurement generator.

A latent "driver" process carries storm activity: storm events arrive as a
per-tick Bernoulli process (the discrete-time Poisson analogue, one tick =
5 minutes), each event injects a heavy-tailed amplitude that decays
exponentially.  The seven solar-wind channels read the driver immediately
through distinct linear and saturating channels plus seeded noise; Dst is a
negatively-signed smoothed copy; Kp responds through a *delayed* saturating
map — each event's Kp response lags its solar-wind signature by 3 or 6
hours (coin flip per event) — clamped to [0, 9].

Everything is drawn from :class:`~kpforecast.rng.PortableRng`, and the decay
and saturation arithmetic uses only +,*,/ (no libm), so a seed produces
bit-identical series on every platform.  With ``storm_rate_per_day=0`` and
``noise_scale=0`` all series are constant at their quiet levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ingest
from .ingest import MeasurementSeries, MeasurementTable
from .rng import PortableRng, derive_seed

__all__ = ["SynthConfig", "generate", "write_csv", "EPOCH"]

#: The minute every generated series starts at.
EPOCH = ingest.parse_timestamp("2021-01-01T00:00Z")

_TICKS_PER_DAY = 288  # 5-minute ticks
_TICKS_PER_HOUR = 12
_TICKS_PER_KP = 36
_DECAY = 0.99  # driver decay per tick (half-life ~ 5.8 h)
_DELAY_TICKS = (36, 72)  # Kp response delay: 3 h or 6 h

# stream tags for seed fan-out
_EVENTS, _PULSES = 1, 2
_NOISE_BASE = 10  # + channel index; dst and kp noise follow the 7 channels


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_days: int = 120
    storm_rate_per_day: float = 0.5
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        for name, value in (("storm rate", self.storm_rate_per_day),
                            ("noise scale", self.noise_scale)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _drivers(config: SynthConfig, n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
    """Latent driver as seen by solar wind (now) and by Kp (delayed)."""
    onset_p = min(config.storm_rate_per_day / _TICKS_PER_DAY, 1.0)
    u = PortableRng(derive_seed(config.seed, _EVENTS)).block_random(n_ticks)
    onsets = np.flatnonzero(u < onset_p)

    pulse_rng = PortableRng(derive_seed(config.seed, _PULSES))
    draws = pulse_rng.block_random(3 * onsets.size).reshape(onsets.size, 3)

    add_now = np.zeros(n_ticks)
    add_delayed = np.zeros(n_ticks)
    for (tick, (u_amp, u_big, u_delay)) in zip(onsets, draws):
        amplitude = 0.22 / (0.92 * u_amp + 0.08)  # heavy-tailed, in (0.22, 2.75]
        if u_big < 0.12:
            amplitude *= 2.2  # occasional major storm
        add_now[tick] += amplitude
        delayed_tick = tick + _DELAY_TICKS[0 if u_delay < 0.5 else 1]
        if delayed_tick < n_ticks:
            add_delayed[delayed_tick] += amplitude

    driver_now = np.empty(n_ticks)
    driver_delayed = np.empty(n_ticks)
    level = level_delayed = 0.0
    for t in range(n_ticks):
        level = level * _DECAY + add_now[t]
        level_delayed = level_delayed * _DECAY + add_delayed[t]
        driver_now[t] = level
        driver_delayed[t] = level_delayed
    return driver_now, driver_delayed


def _noise(config: SynthConfig, tag: int, count: int) -> np.ndarray:
    rng = PortableRng(derive_seed(config.seed, _NOISE_BASE + tag))
    return config.noise_scale * rng.block_noise(count)


def generate(
    config: SynthConfig = SynthConfig(),
) -> tuple[tuple[MeasurementSeries, ...], MeasurementSeries, MeasurementSeries]:
    """Produce ``(solar_wind_series_7, dst_series, kp_series)`` for the config."""
    n_ticks = config.n_days * _TICKS_PER_DAY
    d, d_kp = _drivers(config, n_ticks)

    sat = d / (1.0 + 0.3 * d)
    channels = {
        "fma": np.maximum(4.2 + 3.0 * d + 1.6 * d * d / (1.0 + d)
                          + 0.35 * _noise(config, 0, n_ticks), 0.0),
        "bx": 0.3 - 0.9 * d + 1.1 * _noise(config, 1, n_ticks),
        "by": -0.2 + 0.5 * d + 1.1 * _noise(config, 2, n_ticks),
        "bz": 0.9 - 2.8 * d / (1.0 + 0.25 * d) + 0.9 * _noise(config, 3, n_ticks),
        "speed": np.maximum(372.0 + 145.0 * sat
                            + 9.0 * _noise(config, 4, n_ticks), 0.0),
        "density": np.maximum(5.6 + 2.6 * d + 1.0 * _noise(config, 5, n_ticks), 0.0),
        "temperature": np.maximum(95_000.0 * (1.0 + 0.75 * d)
                                  + 6_000.0 * _noise(config, 6, n_ticks), 0.0),
    }
    all_present = np.ones(n_ticks, dtype=bool)
    solar = tuple(
        MeasurementSeries(name, 5, EPOCH, channels[name], all_present)
        for name in ingest.SOLAR_WIND_FIELDS
    )

    n_hours = config.n_days * 24
    hourly_driver = d[:: _TICKS_PER_HOUR]
    smoothed = np.empty(n_hours)
    level = 0.0
    for h in range(n_hours):  # hourly EMA of the driver
        level = 0.65 * level + 0.35 * hourly_driver[h]
        smoothed[h] = level
    dst_values = -(11.0 + 33.0 * smoothed) + 2.2 * _noise(config, 7, n_hours)
    dst = MeasurementSeries("dst", 60, EPOCH, dst_values,
                            np.ones(n_hours, dtype=bool))

    n_kp = config.n_days * 8
    dk = d_kp[:: _TICKS_PER_KP]
    kp_values = 1.15 + 7.9 * dk / (dk + 1.6) + 0.22 * _noise(config, 8, n_kp)
    kp_values = np.clip(kp_values, 0.0, 9.0)
    kp = MeasurementSeries("kp", 180, EPOCH, kp_values,
                           np.ones(n_kp, dtype=bool))
    return solar, dst, kp


def write_csv(config: SynthConfig, out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Generate and write ``solar_wind.csv``, ``dst.csv``, ``kp.csv``.

    Files are in the canonical formats, so reading them back through the
    parsers reproduces the in-memory series exactly.
    """
    solar, dst, kp = generate(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = (out / "solar_wind.csv", out / "dst.csv", out / "kp.csv")
    for path, group in zip(paths, (solar, (dst,), (kp,))):
        path.write_bytes(ingest.format_table(MeasurementTable.from_series(group)))
    return paths

"""Trace/distribution-driven client availability (FLGo-style churn).

The availability selector's default is a flat Bernoulli coin per
``(round, client)``.  Real fleets are not flat: phone-usage traces show
diurnal login waves, and device classes churn differently (cheap devices
disappear overnight; plugged-in desktops do not).  This module supplies
pluggable *availability models* that turn ``(round, device class)`` into
an online **rate**; the selector keeps drawing the actual coin from its
counter-based SplitMix64 stream, so whichever model shapes the rates, the
mask stays a deterministic function of ``(seed, round, client_id)`` —
independent of pool order and executor backend (CONTRACTS.md I1).

Models are immutable (pure rate functions): they carry no trajectory
state and need no checkpoint payload.

Spec grammar (``--availability-trace`` / ``CoordinatorConfig.availability_trace``)::

    bernoulli:<rate>
    diurnal:base=0.8,amplitude=0.5,period=24,class_phase=0.25,floor=0.05,ceil=1.0
    trace:<path.json>

``diurnal`` is a sinusoidal day cycle: class ``c``'s online rate is
``clip(base * (1 + amplitude * sin(2π * (round/period + class_phase*c))),
floor, ceil)`` — ``class_phase`` staggers the classes so slow-device
classes dip at different simulated hours (the per-class churn knob).
``trace`` reads a JSON table ``{"period": P, "rates": [[...P floats per
class...], ...]}`` (or a single flat list applied to every class), the
shape FLGo extracts from real usage pings.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "AvailabilityModel",
    "BernoulliAvailability",
    "DiurnalAvailability",
    "TraceAvailability",
    "parse_availability",
]


def _check_rate(rate: float, what: str) -> float:
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"{what} must lie in (0, 1], got {rate}")
    return rate


class AvailabilityModel:
    """Base: maps ``(round, device class)`` to an online rate in (0, 1].

    ``uses_classes`` tells the selector whether the model differentiates
    device classes (when it does not, the selector skips the class-column
    gather).
    """

    uses_classes = False

    def rates(self, round_idx: int, classes: np.ndarray | None):
        """Online rate(s) for this round: a scalar, or per-row array when
        ``classes`` (an int array of device classes) is given."""
        raise NotImplementedError

    def spec(self) -> str:
        """The spec string that reconstructs this model."""
        raise NotImplementedError


class BernoulliAvailability(AvailabilityModel):
    """Flat rate — exactly the selector's classic behavior."""

    def __init__(self, rate: float = 0.8):
        self.rate = _check_rate(rate, "availability rate")

    def rates(self, round_idx: int, classes: np.ndarray | None):
        return self.rate

    def spec(self) -> str:
        return f"bernoulli:{self.rate:g}"


class DiurnalAvailability(AvailabilityModel):
    """Sinusoidal day cycle with per-class phase stagger."""

    uses_classes = True

    def __init__(
        self,
        base: float = 0.8,
        amplitude: float = 0.5,
        period: float = 24.0,
        class_phase: float = 0.25,
        floor: float = 0.05,
        ceil: float = 1.0,
    ):
        self.base = _check_rate(base, "base")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must lie in [0, 1], got {amplitude}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.class_phase = float(class_phase)
        self.floor = float(floor)
        self.ceil = _check_rate(ceil, "ceil")
        if not 0.0 < self.floor <= self.ceil:
            raise ValueError(
                f"floor must lie in (0, ceil], got floor={floor} ceil={ceil}"
            )

    def rates(self, round_idx: int, classes: np.ndarray | None):
        phase = round_idx / self.period
        if classes is None:
            wave = math.sin(2.0 * math.pi * phase)
            return float(
                min(max(self.base * (1.0 + self.amplitude * wave), self.floor), self.ceil)
            )
        wave = np.sin(
            2.0 * np.pi * (phase + self.class_phase * classes.astype(np.float64))
        )
        return np.clip(self.base * (1.0 + self.amplitude * wave), self.floor, self.ceil)

    def spec(self) -> str:
        return (
            f"diurnal:base={self.base:g},amplitude={self.amplitude:g},"
            f"period={self.period:g},class_phase={self.class_phase:g},"
            f"floor={self.floor:g},ceil={self.ceil:g}"
        )


class TraceAvailability(AvailabilityModel):
    """Periodic per-class rate table, typically loaded from a JSON trace."""

    uses_classes = True

    def __init__(self, rates, path: str | None = None):
        table = np.asarray(rates, dtype=np.float64)
        if table.ndim == 1:
            table = table[None, :]
        if table.ndim != 2 or table.shape[1] < 1:
            raise ValueError(
                "trace rates must be a [classes x period] table or a flat list"
            )
        if not ((table > 0.0) & (table <= 1.0)).all():
            raise ValueError("every trace rate must lie in (0, 1]")
        self.table = table
        self.path = path

    @classmethod
    def from_file(cls, path: str) -> "TraceAvailability":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read availability trace {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"availability trace {path!r} is not JSON: {exc}") from exc
        if isinstance(payload, dict):
            rates = payload.get("rates")
            if rates is None:
                raise ValueError(
                    f"availability trace {path!r} has no 'rates' key"
                )
            period = payload.get("period")
            model = cls(rates, path=path)
            if period is not None and int(period) != model.table.shape[1]:
                raise ValueError(
                    f"availability trace {path!r}: period={period} does not "
                    f"match rate row length {model.table.shape[1]}"
                )
            return model
        return cls(payload, path=path)

    def rates(self, round_idx: int, classes: np.ndarray | None):
        period = self.table.shape[1]
        slot = int(round_idx) % period
        if classes is None:
            return float(self.table[0, slot])
        cls_idx = np.minimum(
            classes.astype(np.int64), self.table.shape[0] - 1
        )
        return self.table[cls_idx, slot]

    def spec(self) -> str:
        if self.path is None:
            raise ValueError("an inline trace table has no reconstructing spec")
        return f"trace:{self.path}"


def parse_availability(spec: str) -> AvailabilityModel:
    """Parse an availability spec string into a model (see module docstring)."""
    if not isinstance(spec, str) or ":" not in spec:
        raise ValueError(
            f"availability spec must look like 'kind:args', got {spec!r}"
        )
    kind, _, args = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "bernoulli":
        try:
            rate = float(args)
        except ValueError:
            raise ValueError(
                f"bernoulli spec takes one rate, got {args!r}"
            ) from None
        return BernoulliAvailability(rate)
    if kind == "diurnal":
        kwargs: dict[str, float] = {}
        allowed = ("base", "amplitude", "period", "class_phase", "floor", "ceil")
        if args.strip():
            for part in args.split(","):
                key, sep, value = part.partition("=")
                key = key.strip()
                if not sep or key not in allowed:
                    raise ValueError(
                        f"diurnal spec part {part!r} is not one of "
                        f"{', '.join(k + '=<float>' for k in allowed)}"
                    )
                try:
                    kwargs[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"diurnal spec {key}={value!r} is not a number"
                    ) from None
        return DiurnalAvailability(**kwargs)
    if kind == "trace":
        if not args.strip():
            raise ValueError("trace spec needs a file path: trace:<path.json>")
        return TraceAvailability.from_file(args.strip())
    raise ValueError(
        f"unknown availability model {kind!r}; choose bernoulli, diurnal, or trace"
    )

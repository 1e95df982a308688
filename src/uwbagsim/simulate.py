"""Scenario orchestration: wires geometry, link budget, and the tap generator.

The absolute scale of the synthetic channel is anchored to the co-polarized
direct-path amplitude of the link: the first scattered component sits
``LOS_BACKOFF_DB`` below it. Orientation mismatch attenuates only the direct
path (reflected cross-polarized energy still arrives at full scatter level),
and an obstructed link suppresses the direct path entirely while keeping the
scattered field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .core import (
    ChannelRealization,
    Ensemble,
    LinkConfig,
    Scenario,
    ScenarioParams,
    chunk_ranges,
    lookup_params,
)
from .errors import InvalidValue
from .generator import LOS_BACKOFF_DB, GeneratorConfig, generate_ensemble
from .geometry import DEFAULT_XPD_DB, ElevationPattern, Orientation, polarization_power_loss
from .linkbudget import los_amplitude

__all__ = ["LinkScenario", "realize", "realize_batch", "realize_ensemble"]


@dataclass(frozen=True)
class LinkScenario:
    """Everything needed to synthesize channels for one measured link."""

    scenario: Scenario
    link: LinkConfig
    params: ScenarioParams
    xpd_db: float = DEFAULT_XPD_DB
    pattern: Optional[ElevationPattern] = None

    def __post_init__(self) -> None:
        polarization_power_loss(self.link.orientation, self.xpd_db)  # rejects a bad xpd_db

    @classmethod
    def from_tables(
        cls,
        scenario: Scenario,
        link: LinkConfig,
        xpd_db: float = DEFAULT_XPD_DB,
        pattern: Optional[ElevationPattern] = None,
    ) -> "LinkScenario":
        params = lookup_params(
            scenario, link.receiver, link.orientation, link.horizontal_distance_m
        )
        return cls(scenario, link, params, xpd_db, pattern)

    def copolarized_los_amplitude(self) -> float:
        """Direct-path amplitude the link would have with matched antennas."""
        return los_amplitude(self.link.geometry, Orientation.VV, pattern=self.pattern)

    def los_amplitude(self) -> float:
        """Direct-path amplitude actually received; 0 when the path is obstructed."""
        if self.scenario.los_blocked:
            return 0.0
        return los_amplitude(self.link.geometry, self.link.orientation, self.xpd_db, self.pattern)

    def anchored(self, config: GeneratorConfig) -> GeneratorConfig:
        """``config`` with a first-path power ``LOS_BACKOFF_DB`` below the co-polarized
        direct path, unless it sets one; ``InvalidValue`` naming the link if that power
        leaves the float range."""
        if config.first_path_power is not None:
            return config
        copol = self.copolarized_los_amplitude()
        power = copol**2 * 10.0 ** (-LOS_BACKOFF_DB / 10.0)
        if not 0 < power < math.inf:
            link = self.link
            raise InvalidValue(
                f"the {self.scenario.value} {link.receiver.value} {link.orientation.value} link "
                f"at x={link.horizontal_distance_m:g} m, h={link.uav_height_m:g} m: the scatter "
                f"power {LOS_BACKOFF_DB:g} dB below its direct path is {power:g}, "
                "past the float range"
            )
        return replace(config, first_path_power=power)


def realize_batch(scenario: LinkScenario, config: GeneratorConfig, indices: range) -> Ensemble:
    """Synthesize realizations ``indices`` of the link as one ensemble."""
    return generate_ensemble(
        scenario.params,
        scenario.anchored(config),
        indices,
        los_amplitude=scenario.los_amplitude(),
    )


def realize(
    scenario: LinkScenario, config: GeneratorConfig, realization_index: int = 0
) -> ChannelRealization:
    """Synthesize one channel realization for the link."""
    return realize_batch(scenario, config, range(realization_index, realization_index + 1))[0]


def realize_ensemble(
    scenario: LinkScenario, config: GeneratorConfig, n_realizations: int
) -> Iterator[ChannelRealization]:
    """Lazily yield ``n_realizations`` independent realizations, synthesized
    ENSEMBLE_CHUNK at a time."""
    return (
        realization
        for indices in chunk_ranges(n_realizations)
        for realization in realize_batch(scenario, config, indices)
    )

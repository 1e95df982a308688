"""Scenario orchestration: wires geometry, link budget, and the tap generator.

The absolute scale of the synthetic channel is anchored to the co-polarized
direct-path amplitude of the link: the first scattered component sits
``nlos backoff`` dB below it. Orientation mismatch attenuates only the direct
path (reflected cross-polarized energy still arrives at full scatter level),
and an obstructed link suppresses the direct path entirely while keeping the
scattered field.
"""

from __future__ import annotations

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
from .generator import GeneratorConfig, generate_ensemble
from .geometry import DEFAULT_XPD_DB, ElevationPattern, Orientation
from .linkbudget import DEFAULT_RADIO, RadioConstants, los_amplitude

__all__ = ["LinkScenario", "realize", "realize_batch", "realize_ensemble"]


@dataclass(frozen=True)
class LinkScenario:
    """Everything needed to synthesize channels for one measured link."""

    scenario: Scenario
    link: LinkConfig
    params: ScenarioParams
    constants: RadioConstants = DEFAULT_RADIO
    xpd_db: float = DEFAULT_XPD_DB
    pattern: Optional[ElevationPattern] = None

    @classmethod
    def from_tables(
        cls,
        scenario: Scenario,
        link: LinkConfig,
        constants: RadioConstants = DEFAULT_RADIO,
        xpd_db: float = DEFAULT_XPD_DB,
        pattern: Optional[ElevationPattern] = None,
    ) -> "LinkScenario":
        params = lookup_params(
            scenario, link.receiver, link.orientation, link.horizontal_distance_m
        )
        return cls(scenario, link, params, constants, xpd_db, pattern)

    def copolarized_los_amplitude(self) -> float:
        """Direct-path amplitude the link would have with matched antennas."""
        return los_amplitude(
            self.link.geometry, Orientation.VV, self.constants, pattern=self.pattern
        )

    def los_amplitude(self) -> float:
        """Direct-path amplitude actually received; 0 when the path is obstructed."""
        if self.scenario.los_blocked:
            return 0.0
        return los_amplitude(
            self.link.geometry,
            self.link.orientation,
            self.constants,
            self.xpd_db,
            self.pattern,
        )


def realize_batch(scenario: LinkScenario, config: GeneratorConfig, indices: range) -> Ensemble:
    """Synthesize realizations ``indices`` of the link as one ensemble."""
    if config.first_path_power is None:
        copol = scenario.copolarized_los_amplitude()
        anchor = copol**2 * 10.0 ** (-config.los_backoff_db / 10.0)
        config = replace(config, first_path_power=anchor)
    return generate_ensemble(
        scenario.params,
        config,
        indices,
        los_amplitude=scenario.los_amplitude(),
        geometry=scenario.link.geometry,
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

"""uwbagsim: stochastic UWB air-to-ground channel simulator and analysis tools.

Forward path: parameter tables -> clustered-multipath tap generation ->
link-budget scaling -> pulse-level waveform synthesis. Inverse path:
deconvolution -> power delay profile -> cluster identification -> parameter
re-estimation. The two directions are built to round-trip.
"""

from .core import (
    ChannelRealization,
    Ensemble,
    LinkConfig,
    Orientation,
    Receiver,
    Scenario,
    ScenarioParams,
    Tap,
    lookup_params,
    tables_as_dict,
    validate_tables,
)
from .generator import (
    AmplitudeFading,
    DecayMode,
    GeneratorConfig,
    draw_cluster_arrivals,
    draw_ray_arrivals,
    generate,
    generate_ensemble,
)
from .geometry import ElevationPattern, LinkGeometry, elevation_angle, los_gain
from .linkbudget import (
    free_space_reference_db,
    link_margin_db,
    los_amplitude,
    path_loss_db,
    received_power,
)
from .analysis import (
    ClusterEstimate,
    ParamEstimate,
    Pdp,
    clean_deconvolve,
    compute_pdp,
    count_significant_mpcs,
    estimate_params,
    identify_clusters,
)
from .simulate import LinkScenario, realize, realize_batch, realize_ensemble
from .waveform import SamplingGrid, render, template_pulse

__version__ = "0.1.0"

__all__ = [
    "AmplitudeFading",
    "ChannelRealization",
    "ClusterEstimate",
    "DecayMode",
    "ElevationPattern",
    "Ensemble",
    "GeneratorConfig",
    "LinkConfig",
    "LinkGeometry",
    "LinkScenario",
    "Orientation",
    "ParamEstimate",
    "Pdp",
    "Receiver",
    "SamplingGrid",
    "Scenario",
    "ScenarioParams",
    "Tap",
    "clean_deconvolve",
    "compute_pdp",
    "count_significant_mpcs",
    "draw_cluster_arrivals",
    "draw_ray_arrivals",
    "elevation_angle",
    "estimate_params",
    "free_space_reference_db",
    "generate",
    "generate_ensemble",
    "identify_clusters",
    "link_margin_db",
    "lookup_params",
    "los_amplitude",
    "los_gain",
    "path_loss_db",
    "realize",
    "realize_batch",
    "realize_ensemble",
    "received_power",
    "render",
    "tables_as_dict",
    "template_pulse",
    "validate_tables",
]

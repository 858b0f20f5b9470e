"""Satellite-to-ground QKD downlink simulation and scheduling."""

__version__ = "0.1.0"

from .orbit import (  # noqa: F401
    AccessInterval,
    Ephemeris,
    GroundStation,
    LookAngles,
    SatelliteState,
    TleElements,
    TleError,
    compute_access_windows,
    look_angles,
    parse_tle,
    propagate,
    sun_elevation,
)
from .channel import LossBreakdown, OpticalParams, total_loss  # noqa: F401
from .cloud import CloudGrid, cloud_loss, load_cloud_grid, query  # noqa: F401
from .qkd import KeyMatrix, QkdParams, RateResult, build_key_matrix, gllp_rate  # noqa: F401
from .sched import (  # noqa: F401
    IDLE,
    SWITCH,
    Distribution,
    GaConfig,
    Schedule,
    StrategyConfig,
    delivered_distribution,
    evaluate,
    is_feasible,
    kl_divergence,
    solve_exact,
    solve_ga,
)

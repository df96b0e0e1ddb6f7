"""Channel and propagation models: AWGN, offsets, fading, path loss."""

from repro.channel.awgn import AwgnChannel, add_awgn
from repro.channel.base import Channel, ChannelChain, IdentityChannel
from repro.channel.environment import (
    DEFAULT_INDOOR_BUDGET,
    RealEnvironment,
    awgn_environment,
)
from repro.channel.fading import (
    BlockFadingChannel,
    rayleigh_gain,
    rician_gain,
)
from repro.channel.offsets import (
    FrequencyOffsetChannel,
    PhaseOffsetChannel,
    oscillator_cfo_hz,
)
from repro.channel.pathloss import (
    LinkBudget,
    THERMAL_NOISE_DBM_HZ,
    free_space_path_loss_db,
)

__all__ = [
    "AwgnChannel",
    "BlockFadingChannel",
    "Channel",
    "ChannelChain",
    "DEFAULT_INDOOR_BUDGET",
    "FrequencyOffsetChannel",
    "IdentityChannel",
    "LinkBudget",
    "PhaseOffsetChannel",
    "RealEnvironment",
    "THERMAL_NOISE_DBM_HZ",
    "add_awgn",
    "awgn_environment",
    "free_space_path_loss_db",
    "oscillator_cfo_hz",
    "rayleigh_gain",
    "rician_gain",
]

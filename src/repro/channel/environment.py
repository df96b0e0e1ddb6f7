"""Environment presets matching the paper's two evaluation settings.

* :func:`awgn_environment` — the "ideal scenario" of Sec. VI-B: unit-power
  waveform plus AWGN at a chosen SNR, nothing else.
* :class:`RealEnvironment` — the "practical scenario" of Sec. VI-C /
  Sec. VII-D: log-distance path loss mapped to SNR, Rician block fading
  from human activity, and random carrier frequency / phase offsets from
  independent oscillators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.channel.awgn import AwgnChannel
from repro.channel.base import Channel, ChannelChain
from repro.channel.fading import BlockFadingChannel
from repro.channel.offsets import FrequencyOffsetChannel, PhaseOffsetChannel
from repro.channel.pathloss import LinkBudget
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.utils.signal_ops import ReceiverBand


def awgn_environment(snr_db: float, rng: RngLike = None) -> Channel:
    """The paper's ideal scenario: normalized power + AWGN."""
    return AwgnChannel(snr_db=snr_db, rng=rng)


#: Link budget tuned so the decoding edge falls at several metres, as in
#: the paper's USRP experiments: SNR ~22 dB at 1 m falling ~6 dB per
#: distance doubling into the 4-8 dB region at 7-8 m.
DEFAULT_INDOOR_BUDGET = LinkBudget(
    tx_power_dbm=0.0,
    path_loss_exponent=2.0,
    noise_figure_db=8.0,
    interference_power_dbm=-62.0,
    shadowing_sigma_db=1.0,
)


@dataclass
class RealEnvironment:
    """Distance-parameterized indoor channel for the paper's experiments.

    Attributes:
        budget: distance -> SNR link budget.
        fading: block-fading profile — ``"rician"`` (the paper's LoS
            links), ``"rayleigh"`` (no LoS component, for scenario
            sweeps), or ``"none"``.
        k_factor_db: Rician K factor of the block fading (LoS links);
            ``None`` disables the fading stage under the ``"rician"``
            profile.
        max_cfo_hz: per-packet random CFO bound; commodity 2.4 GHz radios
            at +/-10 ppm would see +/-24 kHz, but the receivers in the
            paper lock coarse frequency first, so the residual is small.
        random_phase: apply a uniform random phase per packet (the effect
            visible in Fig. 6b).
    """

    budget: LinkBudget = field(default_factory=lambda: DEFAULT_INDOOR_BUDGET)
    k_factor_db: Optional[float] = 12.0
    max_cfo_hz: float = 300.0
    random_phase: bool = True
    rng: RngLike = None
    fading: str = "rician"

    def __post_init__(self) -> None:
        if self.fading not in ("rician", "rayleigh", "none"):
            raise ValueError(
                f"unknown fading profile {self.fading!r}; expected "
                f"'rician', 'rayleigh', or 'none'"
            )
        self._rng = ensure_rng(self.rng)

    def snr_db_at(self, distance_m: float) -> float:
        """Mean received SNR at a distance (before fading)."""
        return self.budget.snr_db(distance_m, rng=self._rng)

    def channel_at(
        self,
        distance_m: float,
        extra_loss_db: float = 0.0,
        rng: RngLike = None,
        band: Optional[ReceiverBand] = None,
    ) -> Channel:
        """A per-packet channel realization for one transmission.

        The chain's input is the unit-power transmit frame: block fading,
        CFO and phase act on it, and the noise is referenced to that unit
        power, so ``|h|^2`` of the fading gain reaches the SNR.

        Args:
            distance_m: transmitter-receiver separation.
            extra_loss_db: additional SNR penalty, e.g. a receiver's
                implementation loss.
            rng: draw this realization from a dedicated stream instead of
                the environment's own generator — required when trials
                run in parallel, where each trial owns a spawned stream
                and the environment object is shared read-only.
            band: the input is the frame as this receiver reads it
                (:meth:`repro.experiments.common.PreparedLink.at_receiver`),
                and the noise is drawn there; ``None`` runs the chain at
                the input's own rate.  The CFO then acts at the receiver's
                rate, which the channel filter leaves unchanged for
                offsets this far inside its passband.
        """
        fading_rng, cfo_rng, phase_rng, noise_rng, shadow_rng = spawn_rngs(
            self._rng if rng is None else rng, 5
        )
        stages: List[Channel] = []
        if self.fading == "rayleigh":
            stages.append(BlockFadingChannel(k_factor_db=None, rng=fading_rng))
        elif self.fading == "rician" and self.k_factor_db is not None:
            stages.append(
                BlockFadingChannel(k_factor_db=self.k_factor_db, rng=fading_rng)
            )
        if self.max_cfo_hz > 0:
            stages.append(
                FrequencyOffsetChannel(max_offset_hz=self.max_cfo_hz, rng=cfo_rng)
            )
        if self.random_phase:
            stages.append(PhaseOffsetChannel(rng=phase_rng))
        snr_db = self.budget.snr_db(distance_m, rng=shadow_rng) - extra_loss_db
        # The budget's SNR is defined over the receiver's channel bandwidth,
        # so the noise is referenced to that band rather than the full
        # sampling bandwidth.
        stages.append(
            AwgnChannel(
                snr_db=snr_db,
                rng=noise_rng,
                normalize=False,
                noise_bandwidth_hz=self.budget.bandwidth_hz,
                signal_power=1.0,
                band=band,
            )
        )
        return ChannelChain(stages)

"""Shared infrastructure for the per-table/figure experiment modules.

Every experiment module exposes ``run(...) -> ExperimentResult`` with
defaults small enough for CI; pass larger ``trials`` for paper-scale
statistics.  The result carries printable rows so the benchmark harness
and the CLI can render the same tables the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.attack.emulator import (
    EmulationConfig,
    EmulationResult,
    WaveformEmulationAttack,
)
from repro.errors import ConfigurationError
from repro.telemetry import get_telemetry
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.signal_ops import Waveform
from repro.zigbee.receiver import ReceivedPacket, ReceiverConfig, ZigBeeReceiver
from repro.zigbee.transmitter import TransmitResult, ZigBeeTransmitter


@dataclass
class ExperimentResult:
    """A reproduced table or figure.

    Attributes:
        experiment_id: paper artifact id, e.g. ``"table2"`` or ``"fig10"``.
        title: human-readable description.
        columns: column names of the reproduced table.
        rows: list of row dicts keyed by column name.
        series: optional named numeric series (figure data).
        notes: free-form remarks (substitutions, calibrated values).
        manifest: run manifest (seed, config, versions, host, timing
            tree) attached by the CLI/benchmark harness; ``None`` when
            the runner was called directly without provenance tracking.
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    manifest: Optional[Dict[str, Any]] = None

    def attach_manifest(
        self,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        span_tree: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Build and attach a run manifest; returns it for convenience."""
        from repro.telemetry import build_manifest

        merged = {"experiment_id": self.experiment_id}
        merged.update(config or {})
        self.manifest = build_manifest(
            seed=seed, config=merged, span_tree=span_tree
        )
        return self.manifest

    def add_row(self, **values: Any) -> None:
        """Append one table row; keys must match ``columns``."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ConfigurationError(f"unknown columns: {sorted(unknown)}")
        self.rows.append(values)

    def format_table(self) -> str:
        """Render the rows as an aligned text table."""
        def _fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        widths = {
            column: max(
                len(column), *(len(_fmt(row.get(column, ""))) for row in self.rows)
            ) if self.rows else len(column)
            for column in self.columns
        }
        header = "  ".join(column.ljust(widths[column]) for column in self.columns)
        lines = [self.title, header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                "  ".join(
                    _fmt(row.get(column, "")).ljust(widths[column])
                    for column in self.columns
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def default_payload() -> bytes:
    """The canonical APP payload used across experiments."""
    return b"00042"


def build_observed_waveform(
    payload: Optional[bytes] = None, transmitter: Optional[ZigBeeTransmitter] = None
) -> TransmitResult:
    """One authentic ZigBee frame as observed by the attacker."""
    tx = transmitter or ZigBeeTransmitter()
    return tx.transmit_payload(payload if payload is not None else default_payload())


@dataclass
class PreparedLink:
    """A pre-emulated transmission reused across noise realizations.

    Emulation is deterministic given the observed waveform, so sweeps add
    fresh noise to the same emulated (or authentic, rate-converted)
    waveform instead of re-running the attack per trial — exactly the
    paper's "1000 waveform transmissions" methodology.
    """

    sent: TransmitResult
    on_air: Waveform
    emulation: Optional[EmulationResult]


#: Signal-free samples prepended to every on-air waveform (25 us at
#: 20 Msps) so the receiver can estimate its noise floor before the frame.
LEAD_IN_SAMPLES = 500


def _with_lead_in(waveform: Waveform) -> Waveform:
    zeros = np.zeros(LEAD_IN_SAMPLES, dtype=np.complex128)
    return Waveform(
        np.concatenate([zeros, waveform.samples]), waveform.sample_rate_hz
    )


def prepare_authentic(payload: Optional[bytes] = None) -> PreparedLink:
    """Authentic ZigBee waveform upconverted to the 20 Msps air rate."""
    from repro.attack.interpolate import to_wifi_rate

    sent = build_observed_waveform(payload)
    return PreparedLink(
        sent=sent,
        on_air=_with_lead_in(to_wifi_rate(sent.waveform)),
        emulation=None,
    )


def prepare_emulated(
    payload: Optional[bytes] = None,
    config: Optional[EmulationConfig] = None,
    rng: RngLike = None,
) -> PreparedLink:
    """Emulated waveform ready for repeated noisy transmission."""
    with get_telemetry().span("experiment.prepare_emulated"):
        sent = build_observed_waveform(payload)
        attack = WaveformEmulationAttack(config=config, rng=rng)
        emulation = attack.emulate(sent.waveform)
    return PreparedLink(
        sent=sent,
        on_air=_with_lead_in(attack.transmit_waveform(emulation)),
        emulation=emulation,
    )


def transmit_once(
    prepared: PreparedLink,
    receiver: ZigBeeReceiver,
    snr_db: Optional[float],
    rng: RngLike = None,
    channel_factory: Optional[Callable[..., Any]] = None,
) -> Optional[ReceivedPacket]:
    """One noisy transmission of a prepared waveform; None = sync lost.

    The one-row case of :func:`transmit_batch`.  ``channel_factory`` (a
    scenario override; see :mod:`repro.experiments.sweep`) replaces the
    default AWGN stage with ``channel_factory(snr_db, rng)``.
    """
    with get_telemetry().span("experiment.transmit_once"):
        return _transmit_rows(
            prepared, receiver, snr_db, [ensure_rng(rng)], channel_factory
        )[0]


def transmit_batch(
    prepared: PreparedLink,
    receiver: ZigBeeReceiver,
    snr_db: Optional[float],
    rngs: Sequence[np.random.Generator],
    channel_factory: Optional[Callable[..., Any]] = None,
) -> List[Optional[ReceivedPacket]]:
    """Noisy transmissions of a prepared waveform, one per RNG.

    The prepared waveform is normalized once; each row's noise is drawn
    with the exact same 1-D generator calls
    :class:`repro.channel.awgn.AwgnChannel` makes, so a row depends only
    on its own RNG, and the whole stack goes through the receiver's
    batched chain.  A ``channel_factory`` replaces the AWGN stage row by
    row.  ``None`` rows lost sync.
    """
    if not rngs:
        return []
    with get_telemetry().span("experiment.transmit_batch"):
        return _transmit_rows(
            prepared, receiver, snr_db, rngs, channel_factory
        )


def _transmit_rows(
    prepared: PreparedLink,
    receiver: ZigBeeReceiver,
    snr_db: Optional[float],
    rngs: Sequence[np.random.Generator],
    channel_factory: Optional[Callable[..., Any]],
) -> List[Optional[ReceivedPacket]]:
    """The one body behind :func:`transmit_once` and :func:`transmit_batch`."""
    from repro.utils.signal_ops import db_to_linear, normalize_power

    telemetry = get_telemetry()
    waveform = prepared.on_air
    samples = waveform.samples
    if channel_factory is not None:
        with telemetry.span("channel.custom"):
            rows = [
                channel_factory(snr_db, generator).apply(waveform).samples
                for generator in rngs
            ]
            stacked = np.stack(rows)
    elif snr_db is None:
        stacked = np.tile(samples, (len(rngs), 1))
    else:
        with telemetry.span("channel.awgn"):
            normalized = normalize_power(samples)
            noise_variance = 1.0 / db_to_linear(snr_db)
            scale = np.sqrt(noise_variance / 2.0)
            stacked = np.empty(
                (len(rngs), normalized.size), dtype=np.complex128
            )
            for row, generator in enumerate(rngs):
                noise = scale * (
                    generator.standard_normal(normalized.size)
                    + 1j * generator.standard_normal(normalized.size)
                )
                stacked[row] = normalized + noise
    packets = receiver.receive_batch(stacked, waveform.sample_rate_hz)
    for packet in packets:
        if packet is None:
            telemetry.count("experiment.sync_lost")
    return packets


def packet_delivered(prepared: PreparedLink, packet: Optional[ReceivedPacket]) -> bool:
    """The paper's success criterion for one transmission."""
    if packet is None or not packet.fcs_ok or packet.psdu is None:
        return False
    return packet.psdu == prepared.sent.ppdu[6:]

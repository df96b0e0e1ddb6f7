"""Shared fixtures.

Expensive artifacts (modulated frames, emulation runs) are produced once
per session: they are deterministic, and dozens of tests only need to
*read* them.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest

from repro.attack.emulator import WaveformEmulationAttack
from repro.experiments.common import prepare_authentic, prepare_emulated
from repro.experiments.sweep import StreamSpec
from repro.zigbee.receiver import ReceiverConfig, ZigBeeReceiver
from repro.zigbee.transmitter import ZigBeeTransmitter


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def transmitter() -> ZigBeeTransmitter:
    return ZigBeeTransmitter()


@pytest.fixture(scope="session")
def receiver() -> ZigBeeReceiver:
    return ZigBeeReceiver()


@pytest.fixture(scope="session")
def quadrature_receiver() -> ZigBeeReceiver:
    return ZigBeeReceiver(ReceiverConfig(demodulation="quadrature"))


@pytest.fixture(scope="session")
def authentic_link():
    """A transmitted frame plus its 20 Msps air waveform."""
    return prepare_authentic(b"00042")


@pytest.fixture(scope="session")
def emulated_link():
    """The same frame after the waveform emulation attack."""
    return prepare_emulated(b"00042", rng=7)


@pytest.fixture(scope="session")
def emulation_result(emulated_link):
    return emulated_link.emulation


@pytest.fixture(scope="session")
def attack() -> WaveformEmulationAttack:
    return WaveformEmulationAttack(rng=7)


class PlantedFault(RuntimeError):
    """The failure :func:`seed_fault` plants in a sweep's trials."""


def _raising_on_seeds(trial, every):
    """``trial``, raising first when handed a seed divisible by ``every``.

    Keeps the calling convention: a batched trial raises when any of its
    generators was built from such a seed, before computing any row.
    """
    batched = bool(getattr(trial, "batch", False))

    @functools.wraps(trial)
    def planted(context, args, rngs):
        for rng in rngs if batched else [rngs]:
            seed = int(rng.bit_generator.seed_seq.entropy)
            if seed % every == 0:
                raise PlantedFault(f"planted failure at seed {seed}")
        return trial(context, args, rngs)

    return planted


@pytest.fixture
def seed_fault(monkeypatch):
    """``with seed_fault(every):`` every sweep trial handed a stream seed
    divisible by ``every`` raises, so a serial sweep aborts there."""

    @contextlib.contextmanager
    def plant(every):
        resolve = StreamSpec.resolve_trial
        with monkeypatch.context() as patch:
            patch.setattr(
                StreamSpec, "resolve_trial",
                lambda spec, batch: _raising_on_seeds(resolve(spec, batch), every),
            )
            yield

    return plant

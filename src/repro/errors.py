"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary
without swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or invoked with inconsistent parameters."""


class FramingError(ReproError):
    """A PHY or MAC frame could not be built or parsed."""


class FcsError(FramingError):
    """A MAC frame failed its frame-check-sequence (CRC) validation."""


class SynchronizationError(ReproError):
    """Packet detection / timing recovery failed on a received waveform."""


class DecodingError(ReproError):
    """A waveform was detected but could not be decoded into symbols."""


class EmulationError(ReproError):
    """The waveform emulation attack pipeline failed."""


class DetectionError(ReproError):
    """The defensive detector could not produce a decision."""


class TrialExecutionError(ReproError):
    """A Monte Carlo trial raised, which fails the run.

    Carries the structured :class:`repro.experiments.engine.TrialFailure`
    record on :attr:`failure` — including the original traceback text,
    which survives process boundaries where the raising exception object
    may not unpickle.  The message names the raising dispatch: ``trial
    i (seed s)``, or ``trials i–j (batch of n)`` and every seed of a
    batched call.
    """

    def __init__(self, failure):
        self.failure = failure
        first, seeds = failure.trial_index, failure.seeds
        if len(seeds) == 1:
            where = f"trial {first} (seed {seeds[0]})"
        else:
            where = (
                f"trials {first}–{first + len(seeds) - 1} "
                f"(batch of {len(seeds)}, seeds "
                f"{', '.join(str(seed) for seed in seeds)})"
            )
        super().__init__(
            f"{where} raised {failure.exception_type}: {failure.message}"
            f"\n--- original traceback ---\n{failure.traceback}"
        )

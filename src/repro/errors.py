"""Exception hierarchy for the repro package.

Every error raised by the simulator stack derives from :class:`ReproError`
so callers can catch simulator failures without also swallowing Python
programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class AssemblerError(ReproError):
    """Malformed assembly source (bad mnemonic, operand, or label)."""

    def __init__(self, message: str, line_no: int | None = None, line: str | None = None):
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message}"
            if line is not None:
                message = f"{message} (in {line!r})"
        super().__init__(message)


class ExecutionError(ReproError):
    """The functional executor hit an illegal state (bad PC, bad opcode)."""


class MemoryError_(ReproError):
    """Out-of-range or misaligned memory access."""


class CompilerError(ReproError):
    """The kernel IR could not be lowered or analyzed."""


class ConfigError(ReproError):
    """Invalid system or DSA configuration."""


class RunTimeoutError(ReproError):
    """A kernel run exceeded its wall-clock budget."""


class InjectedFaultError(ReproError):
    """A deliberately injected fault fired (fault-injection campaigns)."""

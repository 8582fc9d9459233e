"""Exception hierarchy shared across the package."""


class QkolabError(Exception):
    """Base class for all package errors."""


class InputError(QkolabError):
    """Malformed or inconsistent caller input (CLI exit code 2)."""


class CapError(QkolabError):
    """A resource cap (qubit count, outcome count, ...) was exceeded (CLI exit code 3)."""


class DecodeError(QkolabError):
    """A serialized payload could not be decoded; carries the failing bit offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (bit offset {offset})")
        self.offset = offset


def check_count(name: str, value: int, cap: int | None = None) -> None:
    """Bad input below one, a cap above; callers check before allocating."""
    if value < 1:
        raise InputError(f"{name}={value} must be at least 1")
    if cap is not None and value > cap:
        raise CapError(f"{name}={value} exceeds the cap of {cap}")

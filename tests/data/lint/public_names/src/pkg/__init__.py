"""Fixture package: re-exports that are not uses."""

from pkg.mod import reexported, stray

__all__ = ["reexported", "stray"]

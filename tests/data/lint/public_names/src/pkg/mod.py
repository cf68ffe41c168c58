"""Fixture module for the public-name check.

Naming ``stray`` in a docstring does not save it either.
"""


def stray():
    """Nothing outside tests calls this: flagged."""


def reexported():
    """Only the package ``__init__`` and a test name this: flagged."""


def by_string():
    """A perfbench hook table names this in a string: kept."""


def called():
    """The example calls this: kept."""


def waived():
    """Deliberate public API, waived by name: kept."""


def visit_Node():
    """Visitor methods are dispatched by name: skipped."""


def _private():
    """Private names are skipped."""


class Widget:
    def spin(self):
        """Only a test calls this method: flagged."""

    def __repr__(self):
        return "Widget()"


class _Hidden:
    def public_but_hidden(self):
        """Methods of private classes are skipped."""

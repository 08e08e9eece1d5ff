"""Verification suite names, defaults and caps, apart from the suites
themselves.

The ``haros`` parser reads these to build the ``verify`` command's choices,
defaults and help, so it never loads :mod:`harosgraph.verify` until a
verification runs.  :mod:`harosgraph.verify` takes its defaults from here
and re-exports the names and caps.  This module imports nothing.
"""

SUITES = ("all", "identities", "recurrences", "triple", "corollary")

DEFAULT_VERIFY_ORDER = 50
DEFAULT_VERIFY_LEVELS = 10

MAX_VERIFY_ORDER = 1000
MAX_VERIFY_LEVELS = 16

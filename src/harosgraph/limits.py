"""Verification suite names and caps, apart from the suites themselves.

The ``haros`` parser reads these to build the ``verify`` command's choices
and help, so it never loads :mod:`harosgraph.verify` until a verification
runs.  :mod:`harosgraph.verify` re-exports the same objects.  This module
imports nothing.
"""

SUITES = ("all", "identities", "recurrences", "triple", "corollary")

MAX_VERIFY_ORDER = 1000
MAX_VERIFY_LEVELS = 16

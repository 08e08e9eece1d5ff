"""The executed-lines counter of the tier-1 cost tests.

A count of the Python lines a call runs does not move with the host's load,
so a cost test can bound it exactly; counts are comparable only within one
Python version.
"""

import os
import sys

import harosgraph

PACKAGE = os.path.dirname(harosgraph.__file__)


def executed_lines(call, *args, within=PACKAGE):
    """Python lines call(*args) executes in frames whose file name starts
    with ``within``: by default every harosgraph module."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(within) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return lines

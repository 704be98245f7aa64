import sys
from contextlib import contextmanager

import pytest


@contextmanager
def _recursion_room(frames=100):
    """Lower the recursion limit to the current stack depth plus frames, then restore it.

    Code that recurses once per level of a deep input then fails.
    """
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture
def recursion_room():
    return _recursion_room

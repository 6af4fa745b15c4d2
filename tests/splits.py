"""Builds a split from hand-made rows, for tests that write their data row by row."""

import numpy as np

from kgchains.chains import Split


def split_of(rows, width=0):
    """The split holding ``rows`` (``chains.Instance``) in order; ``width`` sizes an empty one."""
    rows = list(rows)
    return Split(
        heads=[row.head for row in rows],
        tails=[row.tail for row in rows],
        labels=np.array([row.label for row in rows], dtype=np.int64),
        availability=np.stack([row.availability for row in rows]) if rows else np.zeros((0, width)),
    )

import numpy as np

from fewweights.core import POS_INF


def trivial_rows(sources, n):
    """S x V matrix with 0 at [s, s] and +inf elsewhere: the start of a hop
    product from the sources."""
    sources = np.asarray(sources, dtype=np.int64)
    a = np.full((sources.size, n), POS_INF, dtype=np.int64)
    a[np.arange(sources.size), sources] = 0
    return a

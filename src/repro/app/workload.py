"""Workload composition: keys, operation mix, value sizes.

memtier_benchmark's knobs, reproduced: a key space with uniform or
Zipfian popularity, a GET/SET ratio (the paper uses 50-50), and a value
size distribution.  A :class:`WorkloadModel` stitches them into a
request factory.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Optional

from repro.app.protocol import Op, Request

# Bound once: a member read inside a function costs an
# ``EnumType.__getattr__`` call on CPython 3.11.
_GET = Op.GET
_SET = Op.SET


class KeyGenerator:
    """Draws keys from ``key-0 … key-(n-1)``.

    ``zipf_s > 0`` gives Zipfian popularity with exponent ``s`` (rank-1
    most popular); 0 gives uniform.  The Zipf CDF is precomputed once
    and inverted by bisection per draw.
    """

    def __init__(self, n_keys: int, zipf_s: float = 0.0, prefix: str = "key"):
        if n_keys <= 0:
            raise ValueError("need at least one key")
        if zipf_s < 0:
            raise ValueError("zipf exponent must be >= 0")
        self._n_keys = n_keys
        self._prefix = prefix
        self._cdf: Optional[List[float]] = None
        if zipf_s > 0:
            weights = [1.0 / (rank ** zipf_s) for rank in range(1, n_keys + 1)]
            total = sum(weights)
            cumulative = 0.0
            self._cdf = []
            for weight in weights:
                cumulative += weight / total
                self._cdf.append(cumulative)

    @property
    def n_keys(self) -> int:
        """Size of the key space."""
        return self._n_keys

    def draw(self, rng: random.Random) -> str:
        """Sample one key name."""
        if self._cdf is None:
            index = rng.randrange(self._n_keys)
        else:
            index = bisect.bisect_left(self._cdf, rng.random())
            index = min(index, self._n_keys - 1)
        return "%s-%d" % (self._prefix, index)


class OpMixer:
    """Chooses GET vs SET with a configured GET ratio."""

    def __init__(self, get_ratio: float = 0.5):
        if not 0.0 <= get_ratio <= 1.0:
            raise ValueError("get_ratio must be in [0, 1]")
        self._get_ratio = get_ratio

    @property
    def get_ratio(self) -> float:
        """Probability a request is a GET."""
        return self._get_ratio

    def draw(self, rng: random.Random) -> Op:
        """Sample an operation."""
        return _GET if rng.random() < self._get_ratio else _SET


class ValueSizer:
    """Value sizes: fixed, or uniform over a range."""

    def __init__(self, fixed: Optional[int] = 1024, low: int = 0, high: int = 0):
        if fixed is not None:
            if fixed <= 0:
                raise ValueError("fixed size must be positive")
        elif not 0 < low <= high:
            raise ValueError("need 0 < low <= high for ranged sizes")
        self._fixed = fixed
        self._low = low
        self._high = high

    def draw(self, rng: random.Random) -> int:
        """Sample a value size in bytes."""
        if self._fixed is not None:
            return self._fixed
        return rng.randint(self._low, self._high)


class WorkloadModel:
    """Factory of :class:`~repro.app.protocol.Request` objects."""

    def __init__(
        self,
        keys: Optional[KeyGenerator] = None,
        ops: Optional[OpMixer] = None,
        values: Optional[ValueSizer] = None,
    ):
        self.keys = keys or KeyGenerator(n_keys=1000)
        self.ops = ops or OpMixer(get_ratio=0.5)
        self.values = values or ValueSizer(fixed=1024)

    def make_request(self, rng: random.Random) -> Request:
        """Draw one request from the configured distributions."""
        op = self.ops.draw(rng)
        key = self.keys.draw(rng)
        if op is _SET:
            return Request(op=op, key=key, value_size=self.values.draw(rng))
        return Request(op=op, key=key)

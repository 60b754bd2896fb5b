"""The cliff detector against a vectorized numpy oracle.

``detect_cliff_index`` is the one python spelling of the sample-cliff
argmax; this pins it to numpy's ``argmax`` over the same ratios
(skipped where numpy is not installed).
"""

import random

import pytest

from repro.core.ensemble import detect_cliff_index


class TestCliffVectorization:
    def _cases(self):
        rng = random.Random(11)
        cases = [
            [10, 10, 10, 10],          # flat: index 0 wins ties
            [0, 0, 0, 1],              # zeros guarded by max(·, 1)
            [5, 0, 0, 0],
            [1000, 999, 3, 2, 1],      # the paper's cliff shape
            [1, 2, 3, 4, 5],           # monotone increasing
        ]
        for _ in range(200):
            k = rng.randint(2, 9)
            cases.append([rng.randint(0, 50) for _ in range(k)])
        return cases

    def test_matches_numpy_oracle(self):
        np = pytest.importorskip("numpy")
        for counts in self._cases():
            arr = np.asarray(counts, dtype=np.float64)
            ratios = arr[:-1] / np.maximum(arr[1:], 1.0)
            assert detect_cliff_index(counts) == int(ratios.argmax()), counts

    def test_reference_shape(self):
        # First strictly-greater ratio wins; ties resolve to the lowest
        # index (the property argmax must reproduce).
        assert detect_cliff_index([4, 4, 4]) == 0
        assert detect_cliff_index([4, 1, 16, 1]) == 2

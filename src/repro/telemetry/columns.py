"""Append-only run logs kept as typed columns.

A row object costs a slotted instance plus a boxed int per large number;
in a column a number costs its 8 bytes.  Reads build the row type, so a
log reads like the list of rows it replaces.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Sequence
from operator import itemgetter
from typing import Callable, Iterator, List


class ColumnLog(Sequence):
    """Append-only log of ``row`` objects, one column per field.

    ``kinds`` has a letter per field of ``row.__slots__``: ``q`` for an
    ``array('q')`` (ns times, ids, ports), ``d`` for an ``array('d')``,
    ``o`` for a list of shared references.  A hot producer appends
    through the bound ``append`` of each of :attr:`columns`.
    """

    __slots__ = ("_row", "_kinds", "columns")

    def __init__(self, row: Callable, kinds: str):
        self._row = row
        self._kinds = kinds
        self.columns = tuple([] if kind == "o" else array(kind) for kind in kinds)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._row, *[column[index] for column in self.columns]))
        return self._row(*[column[index] for column in self.columns])

    def __iter__(self) -> Iterator:
        return map(self._row, *self.columns)

    def __reversed__(self) -> Iterator:
        return map(self._row, *[reversed(column) for column in self.columns])

    def append(self, *fields) -> None:
        """Add one row, given as its fields in column order."""
        for column, value in zip(self.columns, fields):
            column.append(value)


def merge_logs(logs: List[ColumnLog], key: str) -> ColumnLog:
    """A new log of every row of ``logs`` (each in ``key`` order), ordered
    by field ``key`` with equal keys in the order of ``logs``: the order
    of concatenating the logs and stably sorting by ``key``."""
    first = logs[0]
    merged = ColumnLog(first._row, first._kinds)
    appends = [column.append for column in merged.columns]
    rows = [zip(*log.columns) for log in logs]
    at = first._row.__slots__.index(key)
    for fields in heapq.merge(*rows, key=itemgetter(at)):
        for append, value in zip(appends, fields):
            append(value)
    return merged

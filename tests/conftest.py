"""Shared test configuration: property tests run derandomized, so every
run draws the same examples and tier-1 stays deterministic; and the
fixture that moves one constant of a kind's rows, the mutation the
membership tests must catch."""

import pytest
from hypothesis import settings

from dethodge import repsets

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def shift_rows(monkeypatch):
    """Rebind one kind's rows in `repsets._SPECS` to rows whose lower tail
    bounds const + slope*x have their constant moved by `by`: every such
    bound, or only the one at 0-based position n + `at`. Every reader of
    the rows sees the shifted ones, as `repsets._rows` builds and keeps
    rows per pieces function."""

    def shift(kind, by, at=None):
        spec = repsets._SPECS[kind]

        def shifted(space, p):
            return [
                tuple(
                    (i, entry_lo, entry_hi, tail_lo, tail_hi)
                    if tail_lo is None or at is not None and i != space.n + at
                    else (i, entry_lo, entry_hi, (tail_lo[0] + by, tail_lo[1]), tail_hi)
                    for i, entry_lo, entry_hi, tail_lo, tail_hi in piece
                )
                for piece in spec.pieces(space, p)
            ]

        monkeypatch.setitem(repsets._SPECS, kind, spec._replace(pieces=shifted))

    return shift

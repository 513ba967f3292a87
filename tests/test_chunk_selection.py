"""Chunk selection and rendering against the per-record reference, row by row.

``nlg.chunk_summaries`` picks every row's templates at once (``choose``) and
fills the slots from the chunk's per-factor means and slopes; each summary
must equal what ``_reference_select`` gives for that row alone. Votes come
from a few values so that ties are common, and chunks mix all-zero and
all-set rows with random ones.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from _reference_select import (
    DROP_REASON_CONFLICT, Selection, reference_render, reference_select,
)
from rakelgen.domain import (
    FactorId,
    ReferenceType,
    StudentRecord,
    Template,
    TemplateRegistry,
    default_registry,
    series_stack,
)
from rakelgen.nlg import choose, chunk_summaries, factor_columns

SLOTS = ("{average}", "{trend_word}", "{first_week_value}", "{last_week_value}",
         "{per_week_list}")

#: Marks has all four reference types, listed out of priority order; the
#: other factors have one or two, and three factors have none.
FOUR_TYPES = TemplateRegistry(
    templates=tuple(
        Template(id=template_id, factor=factor, reference=reference,
                 surface_text=f"Template {template_id}: {SLOTS[template_id % 5]} / "
                              f"{SLOTS[(template_id + 2) % 5]}.")
        for template_id, (factor, reference) in enumerate([
            (FactorId.MARKS, ReferenceType.OTHER),
            (FactorId.REVISION, ReferenceType.WEEKS),
            (FactorId.MARKS, ReferenceType.AVERAGE),
            (FactorId.MARKS, ReferenceType.TREND),
            (FactorId.HOURS_STUDIED, ReferenceType.AVERAGE),
            (FactorId.REVISION, ReferenceType.TREND),
            (FactorId.MARKS, ReferenceType.WEEKS),
            (FactorId.DIFFICULTY, ReferenceType.OTHER),
            (FactorId.DEADLINES, ReferenceType.TREND),
            (FactorId.HEALTH_ISSUES, ReferenceType.WEEKS),
        ], start=1)
    ),
    version="four-types",
)

REGISTRIES = st.sampled_from([default_registry(), FOUR_TYPES])
VALUES = st.one_of(
    st.floats(min_value=-200.0, max_value=200.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.05, -0.05, 0.25, 2.5, 1e-300]),
)


@st.composite
def chunks(draw):
    registry = draw(REGISTRIES)
    L = len(registry)
    n = draw(st.integers(min_value=1, max_value=6))
    weeks = draw(st.integers(min_value=1, max_value=6))
    bit_rows = st.one_of(
        st.just([0] * L), st.just([1] * L), st.lists(st.integers(0, 1), min_size=L, max_size=L)
    )
    bits = np.array([draw(bit_rows) for _ in range(n)])
    tied = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0])
    if draw(st.booleans()):
        votes = bits.astype(float)  # the non-RAkEL case: votes are the bits
    else:
        votes = np.array([draw(st.lists(tied, min_size=L, max_size=L)) for _ in range(n)])
    records = [
        StudentRecord(
            f"s{i}", [draw(st.lists(VALUES, min_size=weeks, max_size=weeks)) for _ in FactorId]
        )
        for i in range(n)
    ]
    tolerance = draw(st.sampled_from([0.0, 0.05, 1.0]))
    return registry, records, bits, votes, tolerance


def _selections(bits, votes, registry):
    """Per row of bits and votes, the templates ``choose`` keeps and the set
    ones it drops, in the form of ``reference_select``."""
    at = registry.template_at
    selections = []
    for row_bits, row_votes, winners in zip(
        bits.tolist(), votes.tolist(), choose(bits, votes, factor_columns(registry)).tolist()
    ):
        kept = [j for j in winners if j >= 0]
        lost = sorted(
            (j for j, bit in enumerate(row_bits) if bit and j not in kept),
            key=lambda j: (at(j).factor, j),
        )
        selections.append(Selection(
            chosen=tuple((at(j), row_votes[j]) for j in kept),
            dropped=tuple((at(j), DROP_REASON_CONFLICT) for j in lost),
        ))
    return selections


@given(chunks())
def test_chunk_equals_per_record_reference(chunk):
    registry, records, bits, votes, tolerance = chunk
    summaries = list(chunk_summaries(
        [r.student_id for r in records], series_stack(records), bits, votes, registry, tolerance
    ))
    assert len(summaries) == len(records)
    for record, row_bits, row_votes, summary, selection in zip(
        records, bits.tolist(), votes.tolist(), summaries, _selections(bits, votes, registry)
    ):
        expected = reference_select(row_bits, registry, row_votes)
        assert summary == reference_render(expected, record, tolerance)
        assert selection == expected


@given(REGISTRIES, st.data())
def test_one_row_selection_without_votes(registry, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(registry), max_size=len(registry)))
    row = np.array([bits])
    assert _selections(row, row.astype(float), registry) == [reference_select(bits, registry)]

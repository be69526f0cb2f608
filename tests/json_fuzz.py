"""Hypothesis strategies that damage well-formed JSON documents, for parser fuzzing."""

import math

from hypothesis import strategies as st

_DELETE = object()
HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.just({}),
    st.lists(st.one_of(st.floats(0, 20), st.sampled_from([math.nan, math.inf])), max_size=3),
    st.just(_DELETE),
)


@st.composite
def hostile_edits(draw, data, max_edits: int = 3):
    """``data`` after up to ``max_edits`` hostile edits, made in place.

    An edit picks any key or list slot, at any depth, and puts NaN, ±inf, an
    integer too large for a float, a non-number, a list of the wrong length or
    an empty mapping there, or deletes it.
    """
    for _ in range(draw(st.integers(0, max_edits))):
        if not data:
            break
        holder = data
        key = draw(st.sampled_from(_keys(holder)))
        for _ in range(draw(st.integers(0, 4))):
            if not (isinstance(holder[key], (dict, list)) and holder[key]):
                break
            holder = holder[key]
            key = draw(st.sampled_from(_keys(holder)))
        value = draw(HOSTILE)
        if value is _DELETE:
            del holder[key]
        else:
            holder[key] = value
    return data


def _keys(holder) -> list:
    return sorted(holder) if isinstance(holder, dict) else list(range(len(holder)))

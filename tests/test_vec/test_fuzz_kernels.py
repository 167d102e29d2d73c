"""Property fuzzing: vec kernels vs scalar closed forms (satellite c).

Deep randomized agreement checks, run explicitly with ``-m fuzz``
(CI's fuzz job does). Each property drives the batch kernel and the
scalar reference with the same Hypothesis-generated inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctl import ColumnTranslationLogic
from repro.vec import kernels

pytestmark = pytest.mark.fuzz


@given(
    pattern=st.integers(min_value=0, max_value=7),
    column=st.integers(min_value=0, max_value=127),
    pattern_bits=st.integers(min_value=3, max_value=6),
)
@settings(max_examples=300, deadline=None)
def test_ctl_translate_vs_scalar(pattern, column, pattern_bits):
    chips = 8
    ctls = [
        ColumnTranslationLogic(c, chips, pattern_bits) for c in range(chips)
    ]
    batch = kernels.ctl_translate(
        np.arange(chips),
        np.full(chips, pattern),
        np.full(chips, column),
        num_chips=chips,
        pattern_bits=pattern_bits,
    )
    assert batch.tolist() == [ctl.translate(column, pattern) for ctl in ctls]

"""The error hierarchy: every size refusal is a SizeError, and so a QCayleyError."""

import pytest

from qcayley import SizeError
from qcayley.aunitary import cn_lower
from qcayley.cayley import build_tree
from qcayley.errors import (
    EnumerationSizeError,
    QCayleyError,
    ToeplitzSizeError,
    TreeSizeError,
)
from qcayley.estimates import MAX_TOEPLITZ_SIZE, truncated_toeplitz_norm
from qcayley.fusion import parse_spec
from qcayley.scalars import QQ


@pytest.mark.parametrize("error, call, message", [
    (TreeSizeError, lambda: build_tree(parse_spec("Au(3)"), 20, max_vertices=1000), "vertex cap"),
    (EnumerationSizeError, lambda: cn_lower(14, 3), "exceed the cap"),
    (ToeplitzSizeError, lambda: truncated_toeplitz_norm(QQ(2), MAX_TOEPLITZ_SIZE + 1),
     f"cap of {MAX_TOEPLITZ_SIZE}"),
], ids=["tree", "enumeration", "toeplitz"])
def test_every_size_refusal_is_caught_as_a_size_error(error, call, message):
    assert issubclass(error, SizeError) and issubclass(SizeError, QCayleyError)
    with pytest.raises(SizeError, match=message) as caught:
        call()
    assert type(caught.value) is error

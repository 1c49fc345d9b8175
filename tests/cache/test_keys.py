"""Key determinism: same content, same address; any change, a new one."""

import numpy as np
import pytest

from repro.cache import (
    KEY_PREFIX,
    build_key,
    canonical_matrix_bytes,
    cell_key,
    matrix_key,
)


class TestPinnedDigests:
    """Changing any key orphans every existing store and cell cache, so
    one digest per key function is pinned to its historical value."""

    def test_matrix_key(self):
        assert matrix_key("bitset-1", (2, 3), bytes([0, 1, 1, 0, 1, 0])) == (
            "4fc96c30c761814e89127ccc0b5a259ce6cd490d"
        )

    def test_build_key(self):
        params = {"rows": (1, 2), "cols": 3, "block": 4, "family": "F(5,3)"}
        assert build_key("fraction-1", params) == (
            "284c0b69c93ee02f177d0370f3cfba5a6cdbe907"
        )

    def test_cell_key(self):
        coords = {
            "builder": "_det_equality",
            "params": {"n": 4},
            "seed": 0,
            "regime": "clean",
        }
        assert cell_key("matrix-1", coords) == (
            "2d153c17df51cf08277687741170993fc54e7b92"
        )


class TestCanonicalBytes:
    def test_contiguity_does_not_matter(self):
        a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        assert canonical_matrix_bytes(a.T.copy().T) == canonical_matrix_bytes(a)
        assert canonical_matrix_bytes(a[:, ::1]) == canonical_matrix_bytes(a)

    def test_dtype_is_normalized(self):
        a = [[1, 0], [0, 1]]
        assert canonical_matrix_bytes(a) == canonical_matrix_bytes(
            np.array(a, dtype=np.int64)
        )

    def test_bytes_are_row_major(self):
        assert canonical_matrix_bytes([[1, 0], [0, 1]]) == b"\x01\x00\x00\x01"


class TestMatrixKey:
    def test_deterministic(self):
        k1 = matrix_key("bitset-1", (2, 2), b"\x01\x00\x00\x01")
        k2 = matrix_key("bitset-1", (2, 2), b"\x01\x00\x00\x01")
        assert k1 == k2
        assert len(k1) == 40  # blake2b digest_size=20, hex

    def test_engine_version_separates(self):
        data = b"\x01\x00\x00\x01"
        assert matrix_key("bitset-1", (2, 2), data) != matrix_key(
            "tuple-1", (2, 2), data
        )

    def test_shape_separates_equal_bytes(self):
        data = b"\x01\x00\x00\x01"
        assert matrix_key("bitset-1", (2, 2), data) != matrix_key(
            "bitset-1", (1, 4), data
        )

    def test_content_separates(self):
        assert matrix_key("bitset-1", (2, 2), b"\x01\x00\x00\x01") != matrix_key(
            "bitset-1", (2, 2), b"\x01\x00\x01\x01"
        )

    def test_bad_engine_tags_are_rejected(self):
        with pytest.raises(ValueError):
            matrix_key("", (2, 2), b"")
        with pytest.raises(ValueError):
            matrix_key("bit\0set", (2, 2), b"")

    def test_prefix_is_version_pinned(self):
        # Bumping the prefix orphans every existing record by design; this
        # pin makes that a deliberate, reviewed change.
        assert KEY_PREFIX == b"repro-cache-v1"

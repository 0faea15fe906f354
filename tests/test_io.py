"""Matrix text, PGM round trips, and atom files."""

import re
import warnings

import numpy as np
import pytest

from helpers import save_image
from poisson_deconv.io import (
    load_atoms,
    load_image,
    load_matrix_text,
    load_pgm,
    save_atoms,
    save_matrix_text,
    save_pgm,
)


class TestMatrixText:
    def test_round_trip_precision(self, tmp_path):
        """12 significant digits: max abs error below 1e-9 for O(1) values."""
        rng = np.random.default_rng(0)
        a = rng.random((17, 9))
        path = tmp_path / "m.txt"
        save_matrix_text(path, a)
        b = load_matrix_text(path)
        assert b.shape == a.shape
        assert np.abs(a - b).max() < 1e-9

    def test_header_format(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix_text(path, np.ones((3, 2)))
        first = path.read_text().splitlines()[0]
        assert first == "3 2"

    def test_column_vector(self, tmp_path):
        path = tmp_path / "v.txt"
        save_matrix_text(path, np.array([1.0, 2.0, 3.0]))
        assert load_matrix_text(path).shape == (3, 1)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(ValueError):
            load_matrix_text(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n")
        with pytest.raises(ValueError):
            load_matrix_text(path)

    def test_empty_body_raises_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("2 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="header says 2x2 but body is"):
                load_matrix_text(path)


class TestPgm:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((12, 20)) * 300.0
        path = tmp_path / "img.pgm"
        save_pgm(path, img)
        back = load_pgm(path)
        span = img.max() - img.min()
        assert np.abs(img - back).max() <= span / 65535.0
        assert (tmp_path / "img.pgm.scale").exists()

    def test_eight_bit(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.random((8, 8))
        path = tmp_path / "img.pgm"
        save_pgm(path, img, maxval=255)
        back = load_pgm(path)
        assert np.abs(img - back).max() <= (img.max() - img.min()) / 255.0

    def test_constant_image(self, tmp_path):
        img = np.full((5, 5), 4.25)
        path = tmp_path / "flat.pgm"
        save_pgm(path, img)
        np.testing.assert_allclose(load_pgm(path), img, rtol=1e-12)

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError):
            load_pgm(path)

    @pytest.mark.parametrize("header", [b"2 x", b"-2 2", b"0 2", b"2 2.5", b"2 2 x"])
    def test_malformed_header_names_the_file(self, tmp_path, header):
        """Dimensions must be positive integers: a bare int() error, or a
        negative read length, would not say which file is at fault."""
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n" + header + b"\n255\n" + bytes(8))
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed PGM header")):
            load_pgm(path)

    @pytest.mark.parametrize("sidecar", ["", "3", "1 2 3", "x 2", "nan 2", "0 inf", "5 1"])
    def test_malformed_sidecar_names_the_file(self, tmp_path, sidecar):
        """The sidecar holds two finite numbers `min max` with min <= max;
        `5 1` would silently invert the image."""
        path = tmp_path / "img.pgm"
        save_pgm(path, np.arange(4.0).reshape(2, 2))
        (tmp_path / "img.pgm.scale").write_text(sidecar + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}.scale: malformed scale sidecar")):
            load_pgm(path)


class TestImageDispatch:
    def test_load_by_magic(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.random((9, 9)) * 10.0
        pgm = tmp_path / "a.pgm"
        txt = tmp_path / "a.txt"
        save_image(pgm, img)
        save_image(txt, img)
        assert np.abs(load_image(pgm) - img).max() <= (img.max() - img.min()) / 65535.0
        assert np.abs(load_image(txt) - img).max() < 1e-9

    def test_negative_entries_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("1 2\n1.0 -2.0\n")
        with pytest.raises(ValueError):
            load_image(path)


class TestAtomFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        atoms = rng.random((6, 4, 4))
        path = tmp_path / "atoms.txt"
        save_atoms(path, atoms, stride=2)
        back, stride = load_atoms(path)
        assert stride == 2
        assert back.shape == (6, 4, 4)
        assert np.abs(atoms - back).max() < 1e-9

    def test_header(self, tmp_path):
        path = tmp_path / "atoms.txt"
        save_atoms(path, np.ones((3, 2, 5)), stride=1)
        assert path.read_text().splitlines()[0] == "2 5 3 1"

    def test_negative_values_rejected(self, tmp_path):
        path = tmp_path / "atoms.txt"
        path.write_text("2 2 1 1\n1 2 -3 4\n")
        with pytest.raises(ValueError):
            load_atoms(path)

    def test_wrong_atom_count_rejected(self, tmp_path):
        path = tmp_path / "atoms.txt"
        path.write_text("2 2 2 1\n1 2 3 4\n")
        with pytest.raises(ValueError):
            load_atoms(path)

    @pytest.mark.parametrize("header", ["8 8 x 4", "8 8 4", "8 8 0 4"])
    def test_malformed_header_names_the_file_and_fields(self, tmp_path, header):
        path = tmp_path / "atoms.txt"
        path.write_text(f"{header}\n1 2 3 4\n")
        with pytest.raises(ValueError) as info:
            load_atoms(path)
        assert str(info.value) == (
            f"{path}: malformed header, expected positive integers "
            "'patch_rows patch_cols num_atoms stride'"
        )

    def test_empty_body_raises_without_a_warning(self, tmp_path):
        path = tmp_path / "atoms.txt"
        path.write_text("2 2 1 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="expected 1 atoms of 4 values"):
                load_atoms(path)

    @pytest.mark.parametrize(
        "atoms,stride,match",
        [
            (np.ones((2, 3, 3)), 0, "stride must be at least 1"),
            (np.ones((2, 3, 3)), -2, "stride must be at least 1"),
            (np.zeros((0, 3, 3)), 1, "none 0"),
            (np.full((1, 2, 2), np.nan), 1, "finite"),
            (np.array([[[1.0, np.inf], [0.0, 1.0]]]), 1, "finite"),
            (-np.ones((1, 2, 2)), 1, "nonnegative"),
        ],
        ids=["stride-0", "stride-negative", "no-atoms", "nan", "inf", "negative"],
    )
    def test_save_rejects_what_load_refuses(self, tmp_path, atoms, stride, match):
        """Every file save_atoms writes reads back: it refuses what
        load_atoms would, and writes nothing."""
        path = tmp_path / "atoms.txt"
        with pytest.raises(ValueError, match=match):
            save_atoms(path, atoms, stride)
        assert not path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, tmp_path, value):
        path = tmp_path / "atoms.txt"
        path.write_text(f"2 2 1 1\n1 {value} 3 4\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_atoms(path)

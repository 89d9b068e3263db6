"""Raster types, Lab conversion, and the Netpbm/CSV file formats."""
import numpy as np
import pytest

from depthsample.imagedata import (
    DepthMap,
    FormatError,
    RgbImage,
    SampleSet,
    SamplingMask,
    TruncationError,
    apply_mask,
    load_mask,
    load_pgm16,
    load_ppm,
    load_samples,
    nearest_pixel,
    rgb_to_lab,
    save_mask,
    save_pgm16,
    save_ppm,
    save_samples,
    write_pgm16,
)


# ---------------------------------------------------------------- PPM / PGM

def test_load_ppm_single_pixel(tmp_path):
    p = tmp_path / "red.ppm"
    p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = load_ppm(p)
    assert img.width == 1 and img.height == 1
    assert tuple(img.pixels[0, 0]) == (255, 0, 0)


def test_load_ppm_skips_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + bytes(range(12)))
    img = load_ppm(p)
    assert img.pixels.shape == (2, 2, 3)
    assert img.pixels[1, 1, 2] == 11


def test_load_ppm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(FormatError):
        load_ppm(p)


def test_load_ppm_truncated_payload_names_offset(tmp_path):
    p = tmp_path / "short.ppm"
    header = b"P6\n2 2\n255\n"
    p.write_bytes(header + bytes(5))  # needs 12 payload bytes
    with pytest.raises(TruncationError) as exc:
        load_ppm(p)
    assert exc.value.offset >= len(header)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = RgbImage(rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8))
    p = tmp_path / "rt.ppm"
    save_ppm(img, p)
    back = load_ppm(p)
    assert np.array_equal(back.pixels, img.pixels)


def test_load_pgm16_single_sample(tmp_path):
    p = tmp_path / "d.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n" + (5000).to_bytes(2, "big"))
    d = load_pgm16(p)
    assert d.depth[0, 0] == 5000
    assert d.valid[0, 0]


def test_load_pgm16_zero_means_missing(tmp_path):
    p = tmp_path / "d.pgm"
    p.write_bytes(b"P5\n2 1\n65535\n" + bytes(2) + (1200).to_bytes(2, "big"))
    d = load_pgm16(p)
    assert list(d.valid[0]) == [False, True]
    assert d.depth[0, 1] == 1200


def test_load_pgm16_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "d.pgm"
    p.write_bytes(b"P5\n1 1\n255\n\x10")
    with pytest.raises(FormatError):
        load_pgm16(p)


def test_pgm16_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(11)
    depth = rng.integers(0, 65536, size=(4, 6)).astype(np.float64)
    d = DepthMap(depth, depth > 0)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_pgm16(d, a)
    save_pgm16(load_pgm16(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_pgm16_full_scale_sample(tmp_path):
    p = tmp_path / "max.pgm"
    save_pgm16(DepthMap(np.array([[65535.0]]), np.array([[True]])), p)
    assert p.read_bytes().endswith(b"\xff\xff")


def test_pgm16_rejects_out_of_range_depth(tmp_path):
    d = DepthMap(np.array([[70000.0]]), np.array([[True]]))
    with pytest.raises(ValueError):
        save_pgm16(d, tmp_path / "x.pgm")


def test_empty_mask_file_is_all_zero(tmp_path):
    m = SamplingMask(np.zeros((3, 4), dtype=bool))
    p = tmp_path / "m.pgm"
    save_mask(m, p)
    payload = p.read_bytes().split(b"\n", 3)[-1]
    assert payload == bytes(12)
    assert load_mask(p).count == 0


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = SamplingMask(rng.random((5, 5)) < 0.3)
    p = tmp_path / "m.pgm"
    save_mask(m, p)
    back = load_mask(p)
    assert np.array_equal(back.bits, m.bits)


@pytest.mark.parametrize("load, data, error, message, offset", [
    (load_ppm, b"P6\n2 ", TruncationError, "file ends inside the header", 5),
    (load_ppm, b"P6\n2 x\n255\n", FormatError, "{path}: non-numeric height field 'x'", 5),
    (load_ppm, b"P6\n2 # c\nx\n255\n", FormatError, "{path}: non-numeric height field 'x'", 9),
    (load_pgm16, b"P5\n0 2\n65535\n", FormatError,
     "{path}: image dimensions must be positive, got 0x2", 0),
    (load_mask, b"P5\n1 1\n255", TruncationError, "{path}: file ends before the payload", 10),
    (load_mask, b"P5\n1 1\n255#\x00", FormatError,
     "{path}: expected a single whitespace byte before the payload", 10),
    (load_ppm, b"P6\n1 1\n65535\n" + bytes(6), FormatError,
     "{path}: only maxval 255 is supported, got 65535", 0),
    (load_mask, b"P5\n1 1\n65535\n" + bytes(2), FormatError,
     "{path}: expected an 8-bit mask (maxval 255), got 65535", 0),
    (load_mask, b"P5\n3 1\n255\n\x00\xff\x07", FormatError,
     "{path}: mask samples must be 0 or 255", 13),
])
def test_netpbm_reader_errors_name_the_byte_offset(load, data, error, message, offset, tmp_path):
    p = tmp_path / "bad.pnm"
    p.write_bytes(data)
    with pytest.raises(error) as exc:
        load(p)
    assert str(exc.value) == f"{message.format(path=p)} (byte offset {offset})"
    assert exc.value.offset == offset


@pytest.mark.parametrize("values, message", [
    (np.zeros(3, dtype=np.uint16), "expected a 2-D array, got shape (3,)"),
    (np.array([[-1, 0]]), "values outside the 16-bit range"),
    (np.array([[0, 65536]]), "values outside the 16-bit range"),
])
def test_write_pgm16_rejects_bad_arrays(values, message, tmp_path):
    p = tmp_path / "x.pgm"
    with pytest.raises(ValueError) as exc:
        write_pgm16(values, p)
    assert str(exc.value) == message
    assert not p.exists()


# ---------------------------------------------------------------- CSV samples

def test_sample_csv_formatting(tmp_path):
    p = tmp_path / "s.csv"
    save_samples(SampleSet(np.array([[1.5, 2.25]])), p)
    assert "1.500000,2.250000" in p.read_text()


def test_sample_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    locs = rng.random((20, 2)) * [31, 23]
    p = tmp_path / "s.csv"
    save_samples(SampleSet(locs), p)
    back = load_samples(p)
    assert np.allclose(back.locations, locs, atol=1e-6)


@pytest.mark.parametrize("text", ["", "a,b\n1,2\n"])
def test_load_samples_rejects_a_file_without_the_header(text, tmp_path):
    p = tmp_path / "s.csv"
    p.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_samples(p)
    assert str(exc.value) == f"{p}: expected a CSV with header 'x,y'"


# ---------------------------------------------------------------- Lab

def _scalar_lab(r, g, b):
    # Independent per-pixel evaluation of the published sRGB(D65) -> Lab chain,
    # written longhand so the vectorized module path is checked against
    # something with no shared code.
    def inv_gamma(u):
        u = u / 255.0
        return u / 12.92 if u <= 0.04045 else ((u + 0.055) / 1.055) ** 2.4

    rl, gl, bl = inv_gamma(r), inv_gamma(g), inv_gamma(b)
    x = 0.4124564 * rl + 0.3575761 * gl + 0.1804375 * bl
    y = 0.2126729 * rl + 0.7151522 * gl + 0.0721750 * bl
    z = 0.0193339 * rl + 0.1191920 * gl + 0.9503041 * bl
    xn, yn, zn = 0.95047, 1.0, 1.08883

    def f(t):
        return t ** (1 / 3) if t > (6 / 29) ** 3 else t / (3 * (6 / 29) ** 2) + 4 / 29

    fx, fy, fz = f(x / xn), f(y / yn), f(z / zn)
    return 116 * fy - 16, 500 * (fx - fy), 200 * (fy - fz)


def test_lab_black():
    lab = rgb_to_lab(RgbImage(np.zeros((1, 1, 3), dtype=np.uint8)))
    assert np.allclose(lab.values[0, 0], [0, 0, 0], atol=1e-9)


def test_lab_white():
    lab = rgb_to_lab(RgbImage(np.full((1, 1, 3), 255, dtype=np.uint8)))
    L, a, b = lab.values[0, 0]
    assert abs(L - 100) < 0.01
    assert abs(a) < 0.01 and abs(b) < 0.01


def test_lab_pure_red_matches_scalar_oracle():
    lab = rgb_to_lab(RgbImage(np.array([[[255, 0, 0]]], dtype=np.uint8)))
    expect = _scalar_lab(255, 0, 0)
    assert np.allclose(lab.values[0, 0], expect, atol=0.05)
    # and the oracle itself sits where the textbook value says it should
    assert abs(expect[0] - 53.24) < 0.05
    assert abs(expect[1] - 80.09) < 0.05
    assert abs(expect[2] - 67.20) < 0.05


def test_lab_matches_scalar_oracle_on_random_pixels():
    rng = np.random.default_rng(42)
    pix = rng.integers(0, 256, size=(10, 10, 3), dtype=np.uint8)
    lab = rgb_to_lab(RgbImage(pix))
    for _ in range(100):
        i, j = rng.integers(0, 10, size=2)
        expect = _scalar_lab(*pix[i, j])
        assert np.allclose(lab.values[i, j], expect, atol=1e-6)


def test_gray_axis_is_neutral():
    grays = np.arange(256, dtype=np.uint8).reshape(256, 1)
    img = RgbImage(np.repeat(grays[:, :, None], 3, axis=2))
    lab = rgb_to_lab(img)
    assert np.abs(lab.values[:, :, 1]).max() < 0.01
    assert np.abs(lab.values[:, :, 2]).max() < 0.01


def test_lab_L_range_invariant():
    rng = np.random.default_rng(5)
    img = RgbImage(rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
    L = rgb_to_lab(img).values[:, :, 0]
    assert L.min() >= -1e-3 and L.max() <= 100 + 1e-3


# ---------------------------------------------------------------- pixels, masks

def test_nearest_pixel_rounds_and_breaks_ties_down():
    coords = np.array([1.49, 1.5, 1.51, 0.0, 2.5])
    assert list(nearest_pixel(coords)) == [1, 1, 2, 0, 2]


def test_apply_mask_identity_and_annihilation():
    depth = np.arange(12, dtype=np.float64).reshape(3, 4) + 1
    d = DepthMap(depth, np.ones((3, 4), dtype=bool))
    full = apply_mask(d, SamplingMask(np.ones((3, 4), dtype=bool)))
    assert np.array_equal(full.depth, depth)
    empty = apply_mask(d, SamplingMask(np.zeros((3, 4), dtype=bool)))
    assert not empty.valid.any()
    assert (empty.depth == 0).all()


def test_apply_mask_never_revives_invalid_pixels():
    depth = np.full((4, 4), 1000.0)
    valid = np.ones((4, 4), dtype=bool)
    valid[1, 1] = False
    d = DepthMap(depth, valid)
    sparse = apply_mask(d, SamplingMask(np.ones((4, 4), dtype=bool)))
    assert not sparse.valid[1, 1]
    assert set(np.unique(sparse.depth)) <= {0.0, 1000.0}


def test_apply_mask_rejects_dimension_mismatch():
    d = DepthMap(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        apply_mask(d, SamplingMask(np.ones((3, 3), dtype=bool)))

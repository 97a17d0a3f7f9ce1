import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbes.augmentation import (
    AugmentParams,
    Region,
    augment_class,
    augment_class_records,
    balance_plan,
    binary_mask,
    fallback_saliency,
    find_low_importance_region,
    importance_score,
    read_pbim,
    read_pbsm,
    selective_cut,
    write_pbim,
    write_pbsm,
)
from pbes.errors import FileFormatError, ValidationError
from pbes.numerics import RngState


class TestBalancePlan:
    def test_two_class_sizes(self):
        plan = balance_plan({"A": 191, "B": 98})
        assert plan.reference_class == "A"
        assert plan.counts == {"A": 0, "B": 93}

    def test_already_balanced(self):
        plan = balance_plan({"A": 5, "B": 5, "C": 5})
        assert plan.counts == {"A": 0, "B": 0, "C": 0}
        assert plan.reference_class == "A"  # lowest id on ties

    def test_three_classes(self):
        plan = balance_plan({"A": 3, "B": 7, "C": 4})
        assert plan.reference_class == "B"
        assert plan.counts == {"A": 4, "B": 0, "C": 3}

    def test_empty_map_errors(self):
        with pytest.raises(ValidationError):
            balance_plan({})

    def test_size_below_one_errors(self):
        with pytest.raises(ValidationError):
            balance_plan({"A": 0})


class TestImportanceScore:
    def test_full_region(self):
        s = [[1.0, 2.0], [3.0, 4.0]]
        assert importance_score(s, Region(0, 0, 2, 2)) == 10.0

    def test_top_row(self):
        s = [[1.0, 2.0], [3.0, 4.0]]
        assert importance_score(s, Region(0, 0, 1, 2)) == 3.0

    def test_zero_weights(self):
        assert importance_score(np.zeros((3, 3)), Region(1, 1, 2, 2)) == 0.0

    def test_out_of_bounds(self):
        with pytest.raises(ValidationError):
            importance_score([[1.0]], Region(0, 0, 2, 1))

    def test_additivity_over_tiling(self):
        gen = np.random.default_rng(4)
        s = gen.uniform(0, 5, size=(6, 8))
        whole = importance_score(s, Region(1, 2, 4, 6))
        tiles = [
            Region(1, 2, 2, 3),
            Region(1, 5, 2, 3),
            Region(3, 2, 2, 3),
            Region(3, 5, 2, 3),
        ]
        parts = sum(importance_score(s, t) for t in tiles)
        assert abs(whole - parts) < 1e-9 * (1 + abs(whole))


class TestBinaryMask:
    def test_whole_image(self):
        assert np.array_equal(binary_mask(Region(0, 0, 2, 3), 2, 3), np.ones((2, 3)))

    def test_single_pixel(self):
        assert np.array_equal(
            binary_mask(Region(0, 0, 1, 1), 2, 2), [[1, 0], [0, 0]]
        )

    @given(
        st.integers(1, 10),
        st.integers(1, 10),
        st.integers(0, 9),
        st.integers(0, 9),
        st.integers(1, 10),
        st.integers(1, 10),
    )
    def test_popcount_equals_area(self, h, w, top, left, rh, rw):
        if top + rh > h or left + rw > w:
            with pytest.raises(ValidationError):
                binary_mask(Region(top, left, rh, rw), h, w)
        else:
            mask = binary_mask(Region(top, left, rh, rw), h, w)
            assert int(mask.sum()) == rh * rw


class TestSelectiveCut:
    def test_corner_pixel(self):
        img = np.ones((1, 2, 2), dtype=np.float32)
        out = selective_cut(img, Region(0, 0, 1, 1))
        assert np.array_equal(out[0], [[0.0, 1.0], [1.0, 1.0]])

    def test_whole_image_zeroed(self):
        img = np.random.default_rng(0).random((2, 3, 3)).astype(np.float32)
        out = selective_cut(img, Region(0, 0, 3, 3))
        assert not out.any()

    def test_outside_pixels_bit_identical(self):
        gen = np.random.default_rng(1)
        img = gen.random((3, 4, 4)).astype(np.float32)
        region = Region(1, 2, 2, 2)
        out = selective_cut(img, region)
        for c in range(3):
            for p in range(4):
                for q in range(4):
                    inside = 1 <= p < 3 and 2 <= q < 4
                    if inside:
                        assert out[c, p, q] == 0.0
                    else:
                        assert out[c, p, q] == img[c, p, q]

    def test_idempotent(self):
        img = np.random.default_rng(2).random((2, 5, 5))
        region = Region(0, 1, 3, 2)
        once = selective_cut(img, region)
        assert np.array_equal(selective_cut(once, region), once)

    def test_mask_cut_consistency(self):
        gen = np.random.default_rng(3)
        img = gen.random((1, 6, 6))
        img[0, 4, 4] = 0.0  # a pixel that is zero before the cut
        region = Region(1, 1, 2, 3)
        out = selective_cut(img, region)
        mask = binary_mask(region, 6, 6)
        for p in range(6):
            for q in range(6):
                is_zero = out[0, p, q] == 0.0
                assert is_zero == (mask[p, q] == 1 or img[0, p, q] == 0.0)

    def test_out_of_bounds(self):
        with pytest.raises(ValidationError):
            selective_cut(np.ones((1, 2, 2)), Region(1, 1, 2, 2))


class TestFindLowImportanceRegion:
    def test_minimum_window(self):
        region = find_low_importance_region([[1.0, 2.0], [3.0, 4.0]], 1, 1)
        assert (region.top, region.left) == (0, 0)

    def test_uniform_map_raster_tie_break(self):
        region = find_low_importance_region(np.ones((3, 3)), 1, 1)
        assert (region.top, region.left) == (0, 0)

    def test_whole_map_single_candidate(self):
        region = find_low_importance_region(np.ones((4, 5)), 4, 5)
        assert region == Region(0, 0, 4, 5)

    def test_oversized_region_errors(self):
        with pytest.raises(ValidationError):
            find_low_importance_region(np.ones((2, 2)), 3, 1)

    def test_deterministic_mode_is_global_minimum(self):
        gen = np.random.default_rng(9)
        for trial in range(10):
            h, w = gen.integers(2, 17), gen.integers(2, 17)
            s = gen.uniform(0, 1, size=(h, w))
            rh, rw = int(gen.integers(1, h + 1)), int(gen.integers(1, w + 1))
            best = find_low_importance_region(s, rh, rw)
            best_score = importance_score(s, best)
            for top in range(h - rh + 1):
                for left in range(w - rw + 1):
                    cand = importance_score(s, Region(top, left, rh, rw))
                    assert best_score <= cand

    def test_randomized_mode_seeded_and_quantile_gated(self):
        gen = np.random.default_rng(10)
        s = gen.uniform(0, 1, size=(8, 8))
        a = find_low_importance_region(s, 2, 2, mode="randomized", rng=RngState(5))
        b = find_low_importance_region(s, 2, 2, mode="randomized", rng=RngState(5))
        assert a == b
        scores = [
            importance_score(s, Region(t, l, 2, 2)) for t in range(7) for l in range(7)
        ]
        cutoff = float(np.quantile(scores, 0.25))
        assert importance_score(s, a) <= cutoff

    def test_randomized_requires_seed(self):
        with pytest.raises(ValidationError):
            find_low_importance_region(np.ones((3, 3)), 1, 1, mode="randomized")


class TestAugmentParams:
    @pytest.mark.parametrize(
        "fields",
        [
            {"mode": "bogus"},
            {"tau": -0.1},
            {"tau": 7.0},
            {"region_height": 0},
            {"region_width": -3},
        ],
    )
    def test_rejects_out_of_range(self, fields):
        with pytest.raises(ValidationError):
            AugmentParams(**fields)

    def test_accepts_bounds(self):
        AugmentParams(region_height=1, region_width=None, mode="randomized", tau=0.0)
        AugmentParams(tau=1.0)


def _zero_rectangle_of(source, out):
    """Check out == source except inside one all-zero rectangle; return True/False."""
    diff = np.any(out != source, axis=0)
    if not diff.any():
        return np.array_equal(out, source)
    rows = np.flatnonzero(diff.any(axis=1))
    cols = np.flatnonzero(diff.any(axis=0))
    top, bottom = rows.min(), rows.max() + 1
    left, right = cols.min(), cols.max() + 1
    box = out[:, top:bottom, left:right]
    if box.any():
        return False
    patched = out.copy()
    patched[:, top:bottom, left:right] = source[:, top:bottom, left:right]
    return np.array_equal(patched, source)


class TestAugmentClass:
    def test_zero_count(self):
        assert augment_class([np.ones((1, 2, 2))], 0, RngState(0)) == []

    def test_empty_class_errors(self):
        with pytest.raises(ValidationError):
            augment_class([], 2, RngState(0))

    def test_outputs_are_single_cut_copies(self):
        gen = np.random.default_rng(12)
        images = [gen.random((2, 8, 8)).astype(np.float32) for _ in range(2)]
        outs = augment_class(images, 3, RngState(3))
        assert len(outs) == 3
        for out in outs:
            assert any(_zero_rectangle_of(src, out) for src in images)

    def test_records_point_to_true_source(self):
        gen = np.random.default_rng(13)
        images = [gen.random((1, 6, 6)) for _ in range(3)]
        records = augment_class_records(images, 5, RngState(8))
        for rec in records:
            src = images[rec.source_index]
            expected = src.copy()
            expected[
                :,
                rec.region.top : rec.region.top + rec.region.height,
                rec.region.left : rec.region.left + rec.region.width,
            ] = 0.0
            assert np.array_equal(rec.image, expected)

    def test_deterministic_given_rng(self):
        gen = np.random.default_rng(14)
        images = [gen.random((1, 5, 5)) for _ in range(2)]
        a = augment_class(images, 4, RngState(21))
        b = augment_class(images, 4, RngState(21))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_balance_exactness(self):
        gen = np.random.default_rng(15)
        sizes = {0: 7, 1: 4, 2: 6}
        classes = {
            cid: [gen.random((1, 4, 4)) for _ in range(n)] for cid, n in sizes.items()
        }
        plan = balance_plan(sizes)
        for cid, imgs in classes.items():
            extra = augment_class(imgs, plan.counts[cid], RngState(1).derive(cid))
            assert len(imgs) + len(extra) == max(sizes.values())

    def test_saliency_shape_mismatch_errors(self):
        with pytest.raises(ValidationError):
            augment_class(
                [np.ones((1, 4, 4))], 1, RngState(0), saliencies=[np.ones((3, 3))]
            )

    def test_explicit_saliency_guides_cut(self):
        # low-importance corner forced at bottom-right
        img = np.ones((1, 4, 4))
        sal = np.ones((4, 4))
        sal[3, 3] = 0.0
        params = AugmentParams(region_height=1, region_width=1)
        rec = augment_class_records([img], 1, RngState(2), saliencies=[sal], params=params)[0]
        assert (rec.region.top, rec.region.left) == (3, 3)


class TestFallbackSaliency:
    def test_identical_images_zero_saliency(self):
        imgs = [np.ones((2, 3, 3)), np.ones((2, 3, 3))]
        for s in fallback_saliency(imgs):
            assert not s.any()

    def test_deviation_from_mean(self):
        a = np.zeros((1, 1, 2))
        b = np.ones((1, 1, 2))
        sal_a, sal_b = fallback_saliency([a, b])
        assert np.allclose(sal_a, 0.5)
        assert np.allclose(sal_b, 0.5)

    def test_mixed_shapes_error(self):
        with pytest.raises(ValidationError):
            fallback_saliency([np.ones((1, 2, 2)), np.ones((1, 3, 3))])


class TestImageFormats:
    def test_pbim_round_trip_bit_exact(self, tmp_path):
        img = np.random.default_rng(5).random((3, 4, 5)).astype(np.float32)
        path = tmp_path / "img.pbim"
        write_pbim(path, img)
        back = read_pbim(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, img)
        write_pbim(tmp_path / "again.pbim", back)
        assert (tmp_path / "again.pbim").read_bytes() == path.read_bytes()

    def test_pbsm_round_trip_bit_exact(self, tmp_path):
        s = np.random.default_rng(6).random((7, 2)).astype(np.float32)
        path = tmp_path / "map.pbsm"
        write_pbsm(path, s)
        assert np.array_equal(read_pbsm(path), s)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pbim"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FileFormatError):
            read_pbim(path)
        with pytest.raises(FileFormatError):
            read_pbsm(path)

    def test_truncated_payload(self, tmp_path):
        img = np.ones((1, 2, 2), dtype=np.float32)
        path = tmp_path / "img.pbim"
        write_pbim(path, img)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FileFormatError):
            read_pbim(path)

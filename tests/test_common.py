"""Unit tests for repro.common: dtypes, units, rng, errors."""

import numpy as np
import pytest

from repro.common import (
    GB,
    MB,
    MS,
    PRECISION_ORDER,
    US,
    Precision,
    higher_precision,
    new_rng,
    parse_precision,
)
from repro.common.rng import derive_seed


class TestPrecision:
    def test_bits(self):
        assert Precision.INT8.bits == 8
        assert Precision.FP16.bits == 16
        assert Precision.FP32.bits == 32

    def test_nbytes(self):
        assert Precision.INT8.nbytes == 1
        assert Precision.FP16.nbytes == 2
        assert Precision.FP32.nbytes == 4

    def test_float_vs_fixed(self):
        assert Precision.INT8.is_fixed_point
        assert not Precision.INT8.is_floating_point
        assert Precision.FP16.is_floating_point
        assert Precision.FP32.is_floating_point
        assert not Precision.FP32.is_fixed_point

    def test_fp16_format_parameters(self):
        assert Precision.FP16.stochastic_mantissa_bits == 9  # k=9 per paper
        assert Precision.FP16.max_exponent == 15
        assert Precision.FP16.min_exponent == -14

    def test_fp32_format_parameters(self):
        assert Precision.FP32.stochastic_mantissa_bits == 23
        assert Precision.FP32.max_exponent == 127

    def test_int8_has_no_mantissa(self):
        with pytest.raises(ValueError):
            _ = Precision.INT8.stochastic_mantissa_bits
        with pytest.raises(ValueError):
            _ = Precision.INT8.max_exponent

    def test_order_is_low_to_high(self):
        bits = [p.bits for p in PRECISION_ORDER]
        assert bits == sorted(bits)


class TestParsePrecision:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("int8", Precision.INT8),
            ("INT8", Precision.INT8),
            ("fp16", Precision.FP16),
            ("FP32", Precision.FP32),
            (8, Precision.INT8),
            (16, Precision.FP16),
            (32, Precision.FP32),
            (Precision.FP16, Precision.FP16),
        ],
    )
    def test_accepts(self, value, expected):
        assert parse_precision(value) is expected

    def test_rejects_unknown_string(self):
        with pytest.raises(ValueError):
            parse_precision("fp8")

    def test_rejects_unknown_bits(self):
        with pytest.raises(ValueError):
            parse_precision(4)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            parse_precision(3.14)


class TestPrecisionLadder:
    def test_higher(self):
        assert higher_precision(Precision.INT8) is Precision.FP16
        assert higher_precision(Precision.FP16) is Precision.FP32
        assert higher_precision(Precision.FP32) is None


class TestUnits:
    def test_storage_units(self):
        assert MB == 1024**2
        assert GB == 1024**3

    def test_time_units(self):
        assert 250 * MS == pytest.approx(0.25)
        assert 1000 * US == pytest.approx(MS)


class TestRng:
    def test_new_rng_reproducible(self):
        a = new_rng(42).random(8)
        b = new_rng(42).random(8)
        np.testing.assert_array_equal(a, b)

    def test_derive_seed_depends_on_keys(self):
        s1 = derive_seed(1, "worker", 0)
        s2 = derive_seed(1, "worker", 1)
        s3 = derive_seed(1, "worker", 0)
        assert s1 != s2
        assert s1 == s3
        assert 0 <= s1 < 2**31 - 1

    # Recorded from the numpy-uint64 implementation; every profile, plan
    # and artifact is seeded through these values.
    DERIVE_SEED_GOLDEN = [
        (0, ("measure", "fc1", "fp16", "fwd", 2), 2010914640),
        (1, ("measure", "fc1", "fp16", "fwd", 2), 1268231443),
        (2**31 - 1, ("measure", "fc1", "fp16", "fwd", 2), 1360557778),
        (2**63, ("measure", "fc1", "fp16", "fwd", 2), 2010914638),
        (2**64 - 1, ("measure", "fc1", "fp16", "fwd", 2), 1572073835),
        (np.int64(7), ("measure", "fc1", "fp16", "fwd", 2), 980086771),
        (np.uint64(2**64 - 1), ("measure", "fc1", "fp16", "fwd", 2), 1572073835),
        (True, ("measure", "fc1", "fp16", "fwd", 2), 1268231443),
        (2**63 + 5, ("measure",), 398103671),
        (2**63 + 5, (3,), 51140),
        (2**63 + 5, (-3,), 25343987),
        (2**63 + 5, (0.5,), 451100309),
        (2**63 + 5, (("a", 1),), 1818069151),
        (2**63 + 5, (None,), 1168408412),
        (2**63 + 5, ("précision·ß",), 2099513003),
        (2**63 + 5, (), 7),
    ]

    @pytest.mark.parametrize("seed, keys, expected", DERIVE_SEED_GOLDEN)
    def test_derive_seed_golden(self, seed, keys, expected):
        assert derive_seed(seed, *keys) == expected

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_derive_seed_rejects_out_of_range_seed(self, seed):
        with pytest.raises(OverflowError):
            derive_seed(seed, "measure")

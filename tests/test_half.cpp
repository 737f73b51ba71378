// Tests for the software IEEE binary16 implementation (fp/half.hpp).
#include "fp/half.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "fp/half_batch.hpp"
#include "util/rng.hpp"

namespace egemm::fp {
namespace {

// -- golden bit patterns -----------------------------------------------------

// GoogleTest names each case by dumping the parameter's bytes, so the two
// trailing bytes are an explicit zeroed member rather than uninitialised
// padding; otherwise the case names change from one run to the next.
struct Golden {
  float value;
  std::uint16_t bits;
  std::uint16_t pad = 0;
};
static_assert(sizeof(Golden) == 8, "Golden must have no padding");

class HalfGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(HalfGoldenTest, RoundNearestMatchesGolden) {
  const Golden g = GetParam();
  EXPECT_EQ(f32_to_f16_bits(g.value, Rounding::kNearestEven), g.bits);
}

TEST_P(HalfGoldenTest, RoundTripIsExact) {
  const Golden g = GetParam();
  // Every golden value is exactly representable, so the round trip must
  // reproduce the original float.
  EXPECT_EQ(f16_bits_to_f32(g.bits), g.value);
}

INSTANTIATE_TEST_SUITE_P(
    KnownEncodings, HalfGoldenTest,
    ::testing::Values(Golden{0.0f, 0x0000}, Golden{-0.0f, 0x8000},
                      Golden{1.0f, 0x3c00}, Golden{-1.0f, 0xbc00},
                      Golden{2.0f, 0x4000}, Golden{0.5f, 0x3800},
                      Golden{65504.0f, 0x7bff},           // max finite
                      Golden{0x1.0p-14f, 0x0400},         // min normal
                      Golden{0x1.0p-24f, 0x0001},         // min subnormal
                      Golden{0x1.ff8p-15f, 0x03ff},       // large subnormal
                      Golden{1.5f, 0x3e00}, Golden{-2.25f, 0xc080},
                      Golden{0.333251953125f, 0x3555}));  // RN16(1/3)

// -- rounding behaviour ------------------------------------------------------

TEST(HalfRounding, TiesToEven) {
  // 1 + 2^-11 is exactly between 1.0 and the next half 1+2^-10: ties to the
  // even significand (1.0).
  EXPECT_EQ(f32_to_f16_bits(1.0f + 0x1.0p-11f, Rounding::kNearestEven),
            0x3c00);
  // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9.
  EXPECT_EQ(f32_to_f16_bits(1.0f + 3 * 0x1.0p-11f, Rounding::kNearestEven),
            0x3c02);
}

TEST(HalfRounding, TowardZeroTruncates) {
  // Just under the tie point: both modes go down.
  EXPECT_EQ(f32_to_f16_bits(1.0f + 0x1.fp-12f, Rounding::kTowardZero), 0x3c00);
  // Just above: RN goes up, RZ still truncates.
  const float above = 1.0f + 0x1.2p-11f;
  EXPECT_EQ(f32_to_f16_bits(above, Rounding::kNearestEven), 0x3c01);
  EXPECT_EQ(f32_to_f16_bits(above, Rounding::kTowardZero), 0x3c00);
  // Negative values truncate toward zero, not toward -inf.
  EXPECT_EQ(f32_to_f16_bits(-above, Rounding::kTowardZero), 0xbc00);
}

TEST(HalfRounding, OverflowPolicyDiffersByMode) {
  // 65520 is the midpoint between 65504 and 2^16: RN -> inf (ties to even),
  // RZ -> max finite.
  EXPECT_EQ(f32_to_f16_bits(65520.0f, Rounding::kNearestEven), 0x7c00);
  EXPECT_EQ(f32_to_f16_bits(65520.0f, Rounding::kTowardZero), 0x7bff);
  // Just below the midpoint RN stays finite.
  EXPECT_EQ(f32_to_f16_bits(65519.0f, Rounding::kNearestEven), 0x7bff);
  // Far above: RN -> inf, RZ saturates.
  EXPECT_EQ(f32_to_f16_bits(1e30f, Rounding::kNearestEven), 0x7c00);
  EXPECT_EQ(f32_to_f16_bits(1e30f, Rounding::kTowardZero), 0x7bff);
  EXPECT_EQ(f32_to_f16_bits(-1e30f, Rounding::kNearestEven), 0xfc00);
}

TEST(HalfRounding, UnderflowToZeroAndSubnormals) {
  // Below half of the smallest subnormal: rounds to zero.
  EXPECT_EQ(f32_to_f16_bits(0x1.0p-26f, Rounding::kNearestEven), 0x0000);
  // Exactly half of the smallest subnormal: tie to even -> zero.
  EXPECT_EQ(f32_to_f16_bits(0x1.0p-25f, Rounding::kNearestEven), 0x0000);
  // Just above the midpoint: rounds to the smallest subnormal.
  EXPECT_EQ(f32_to_f16_bits(0x1.1p-25f, Rounding::kNearestEven), 0x0001);
  // Subnormal arithmetic grid: 3 * 2^-24.
  EXPECT_EQ(f32_to_f16_bits(3.0f * 0x1.0p-24f, Rounding::kNearestEven),
            0x0003);
  // Signed zero preserved.
  EXPECT_EQ(f32_to_f16_bits(-0x1.0p-26f, Rounding::kTowardZero), 0x8000);
  // binary32 subnormals are far below the binary16 grid.
  EXPECT_EQ(f32_to_f16_bits(std::numeric_limits<float>::denorm_min(),
                            Rounding::kNearestEven),
            0x0000);
}

TEST(HalfRounding, SubnormalCarryToMinNormal) {
  // The largest subnormal rounds up to the smallest normal when the
  // residual pushes it over.
  const float just_below_normal = 0x1.ffffp-15f;
  EXPECT_EQ(f32_to_f16_bits(just_below_normal, Rounding::kNearestEven),
            0x0400);
}

TEST(HalfSpecials, InfAndNaN) {
  EXPECT_EQ(f32_to_f16_bits(std::numeric_limits<float>::infinity(),
                            Rounding::kNearestEven),
            0x7c00);
  EXPECT_EQ(f32_to_f16_bits(-std::numeric_limits<float>::infinity(),
                            Rounding::kTowardZero),
            0xfc00);
  const std::uint16_t nan_bits = f32_to_f16_bits(
      std::numeric_limits<float>::quiet_NaN(), Rounding::kNearestEven);
  EXPECT_TRUE(Half::from_bits(nan_bits).is_nan());
  EXPECT_TRUE(std::isnan(f16_bits_to_f32(0x7e00)));
  EXPECT_TRUE(std::isinf(f16_bits_to_f32(0x7c00)));
}

// -- exhaustive properties over all 65536 bit patterns -----------------------

TEST(HalfExhaustive, RoundTripThroughFloatIsIdentity) {
  for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    if (Half::from_bits(h).is_nan()) continue;  // NaN payloads canonicalize
    const float f = f16_bits_to_f32(h);
    EXPECT_EQ(f32_to_f16_bits(f, Rounding::kNearestEven), h) << "bits " << bits;
    EXPECT_EQ(f32_to_f16_bits(f, Rounding::kTowardZero), h) << "bits " << bits;
  }
}

TEST(HalfExhaustive, WideningMatchesDouble) {
  for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = f16_bits_to_f32(h);
    const double d = f16_bits_to_f64(h);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(d));
    } else {
      EXPECT_EQ(static_cast<double>(f), d);
    }
  }
}

// -- randomized properties ---------------------------------------------------

class HalfPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HalfPropertyTest, RoundNearestIsNearest) {
  util::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 20000; ++trial) {
    const float x = rng.uniform(-70000.0f, 70000.0f);
    const Half h(x);
    if (!h.is_finite()) continue;
    const float hx = h.to_float();
    // No other half value may be strictly closer.
    const double err = std::fabs(static_cast<double>(hx) - static_cast<double>(x));
    const Half up = Half::from_bits(static_cast<std::uint16_t>(h.bits() + 1));
    const Half down = Half::from_bits(static_cast<std::uint16_t>(h.bits() - 1));
    for (const Half& neighbor : {up, down}) {
      if (!neighbor.is_finite()) continue;
      const double nerr = std::fabs(neighbor.to_double() - static_cast<double>(x));
      EXPECT_GE(nerr, err) << "x=" << x;
    }
  }
}

TEST_P(HalfPropertyTest, TowardZeroNeverIncreasesMagnitude) {
  util::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 20000; ++trial) {
    const float x = rng.uniform(-65000.0f, 65000.0f);
    const Half h(x, Rounding::kTowardZero);
    EXPECT_LE(std::fabs(h.to_double()), std::fabs(static_cast<double>(x)));
    // And it is within one ulp below.
    const Half rn(x);
    EXPECT_LE(std::fabs(static_cast<double>(x)) - std::fabs(h.to_double()),
              std::fabs(static_cast<double>(x)) * 0x1.0p-10 + 0x1.0p-24);
    (void)rn;
  }
}

TEST_P(HalfPropertyTest, ConversionIsMonotonic) {
  util::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 20000; ++trial) {
    const float a = rng.uniform(-70000.0f, 70000.0f);
    const float b = rng.uniform(-70000.0f, 70000.0f);
    const float lo = std::min(a, b);
    const float hi = std::max(a, b);
    EXPECT_LE(Half(lo).to_double(), Half(hi).to_double());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HalfPropertyTest,
                         ::testing::Values(1u, 7u, 1234567u));

// -- arithmetic ---------------------------------------------------------------

TEST(HalfArithmetic, BasicOperations) {
  const Half a(1.5f), b(2.5f);
  EXPECT_EQ((a + b).to_float(), 4.0f);
  EXPECT_EQ((b - a).to_float(), 1.0f);
  EXPECT_EQ((a * b).to_float(), 3.75f);
  EXPECT_EQ((b / Half(0.5f)).to_float(), 5.0f);
  EXPECT_EQ((-a).to_float(), -1.5f);
}

TEST(HalfArithmetic, AdditionRoundsOnce) {
  // 65504 + 2^-24 would need ~40 significand bits; the correctly rounded
  // binary16 result is 65504 (no double-rounding artifacts).
  const Half big = Half::max();
  const Half tiny = Half::min_subnormal();
  EXPECT_EQ((big + tiny).bits(), Half::max().bits());
  // 1 + (2^-11 + 2^-21): the addend is a representable half just above the
  // tie point, so the correctly rounded sum goes up to 1 + 2^-10.
  const Half one(1.0f);
  const Half t1 = Half::from_bits(0x1001);  // 2^-11 * (1 + 2^-10)
  EXPECT_EQ((one + t1).bits(), 0x3c01);
}

TEST(HalfArithmetic, ComparisonSemantics) {
  EXPECT_TRUE(Half(0.0f) == Half(-0.0f));
  EXPECT_FALSE(Half::quiet_nan() == Half::quiet_nan());
  EXPECT_TRUE(Half(1.0f) < Half(2.0f));
  EXPECT_TRUE(Half(1.0f) != Half(2.0f));
}

TEST(HalfClassification, Predicates) {
  EXPECT_TRUE(Half::zero().is_zero());
  EXPECT_TRUE(Half::from_bits(0x8000).is_zero());
  EXPECT_TRUE(Half::min_subnormal().is_subnormal());
  EXPECT_FALSE(Half::min_normal().is_subnormal());
  EXPECT_TRUE(Half::infinity().is_inf());
  EXPECT_FALSE(Half::infinity().is_finite());
  EXPECT_TRUE(Half::quiet_nan().is_nan());
  EXPECT_TRUE(Half(-3.0f).sign_bit());
  EXPECT_EQ(Half(2.0f).hex(), "0x4000");
}

// -- batch kernels (fp/half_batch.hpp) ---------------------------------------
// The span kernels are the scalar Half conversions restated as flat integer
// loops; they must agree bit-for-bit on every input, so the tests sweep the
// hand-picked boundary patterns plus a broad random sample in both modes.

std::vector<float> boundary_floats() {
  std::vector<float> v = {
      0.0f, -0.0f, 1.0f, -1.0f, 65504.0f, -65504.0f,
      65520.0f,                        // RN overflow midpoint -> inf
      65519.996f,                      // just under the midpoint
      100000.0f, -100000.0f,           // clear overflow
      0x1.0p-14f, 0x1.0p-24f,          // min normal / min subnormal half
      0x1.0p-25f,                      // RN ties to even -> zero
      0x1.008p-25f,                    // just above -> min subnormal
      0x1.ff8p-15f, -0x1.ff8p-15f,     // max subnormal
      1.0f + 0x1.0p-11f,               // tie -> even
      1.0f + 3 * 0x1.0p-11f,           // tie -> even (up)
      1.0f + 0x1.2p-11f,               // above tie
      0x1.0p-126f,                     // min normal float (half zero)
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
  };
  return v;
}

TEST(HalfBatch, NarrowingMatchesScalarOnBoundariesAndRandom) {
  util::Xoshiro256 rng(77);
  std::vector<float> in = boundary_floats();
  for (int i = 0; i < 50000; ++i) {
    // Random bit patterns cover the full encoding space, not just the
    // sampler's range.
    const auto bits = static_cast<std::uint32_t>(rng());
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    in.push_back(f);
  }
  std::vector<std::uint16_t> out(in.size());
  for (const Rounding mode : {Rounding::kNearestEven, Rounding::kTowardZero}) {
    f32_to_f16_bits_span(in, out, mode);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(out[i], f32_to_f16_bits(in[i], mode))
          << "i=" << i << " value=" << in[i]
          << " mode=" << (mode == Rounding::kNearestEven ? "RN" : "RZ");
    }
  }
}

TEST(HalfBatch, WideningMatchesScalarOnAllPatterns) {
  // All 2^16 encodings fit in one call.
  std::vector<std::uint16_t> bits(1 << 16);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint16_t>(i);
  }
  std::vector<float> widened(bits.size());
  f16_bits_to_f32_span(bits, widened);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const float scalar = f16_bits_to_f32(bits[i]);
    std::uint32_t got, want;
    std::memcpy(&got, &widened[i], sizeof(got));
    std::memcpy(&want, &scalar, sizeof(want));
    ASSERT_EQ(got, want) << "half bits 0x" << std::hex << bits[i];
  }
}

TEST(HalfBatch, RoundThroughComposesNarrowAndWiden) {
  util::Xoshiro256 rng(78);
  std::vector<float> in = boundary_floats();
  for (int i = 0; i < 20000; ++i) in.push_back(rng.uniform(-70000.f, 70000.f));
  std::vector<float> out(in.size());
  for (const Rounding mode : {Rounding::kNearestEven, Rounding::kTowardZero}) {
    f32_round_through_f16_span(in, out, mode);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const float scalar = f16_bits_to_f32(f32_to_f16_bits(in[i], mode));
      std::uint32_t got, want;
      std::memcpy(&got, &out[i], sizeof(got));
      std::memcpy(&want, &scalar, sizeof(want));
      ASSERT_EQ(got, want) << "i=" << i << " value=" << in[i];
    }
  }
}

}  // namespace
}  // namespace egemm::fp

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/mathutil.hpp"
#include "util/strutil.hpp"
#include "util/table.hpp"

namespace {

using namespace hadas::util;

TEST(MathUtil, ClampAndLerp) {
  EXPECT_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_EQ(lerp(2.0, 4.0, 0.5), 3.0);
  EXPECT_EQ(lerp(2.0, 4.0, 0.0), 2.0);
  EXPECT_EQ(lerp(2.0, 4.0, 1.0), 4.0);
}

TEST(MathUtil, SoftmaxSumsToOne) {
  const auto p = softmax({1.0, 2.0, 3.0});
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(MathUtil, SoftmaxTemperatureFlattens) {
  const auto cold = softmax({1.0, 3.0}, 0.5);
  const auto hot = softmax({1.0, 3.0}, 10.0);
  EXPECT_GT(cold[1] - cold[0], hot[1] - hot[0]);
}

TEST(MathUtil, SoftmaxStableForHugeLogits) {
  const auto p = softmax({1000.0, 1000.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
}

TEST(MathUtil, SoftmaxThrowsOnBadTemperature) {
  EXPECT_THROW(softmax({1.0}, 0.0), std::invalid_argument);
}

TEST(MathUtil, EntropyBounds) {
  EXPECT_NEAR(entropy({1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(entropy({0.5, 0.5}), std::log(2.0), 1e-12);
  EXPECT_NEAR(normalized_entropy({0.25, 0.25, 0.25, 0.25}), 1.0, 1e-12);
  EXPECT_EQ(normalized_entropy({1.0}), 0.0);
}

TEST(MathUtil, MakeDivisibleMatchesMobileNetRule) {
  EXPECT_EQ(make_divisible(32.0, 8), 32u);
  EXPECT_EQ(make_divisible(33.0, 8), 32u);
  EXPECT_EQ(make_divisible(37.0, 8), 40u);
  // 10% rule: never round down by more than 10%.
  EXPECT_EQ(make_divisible(20.0, 16), 32u);  // 16 < 0.9*20 -> bump up
  EXPECT_THROW(make_divisible(10.0, 0), std::invalid_argument);
}

TEST(MathUtil, Trapezoid) {
  EXPECT_NEAR(trapezoid({0.0, 1.0, 2.0}, 1.0), 2.0, 1e-12);
  EXPECT_EQ(trapezoid({1.0}, 1.0), 0.0);
  EXPECT_NEAR(trapezoid({1.0, 1.0, 1.0, 1.0}, 0.5), 1.5, 1e-12);
}

TEST(StrUtil, FixedAndPercent) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(-1.0, 0), "-1");
  EXPECT_EQ(fmt_pct(0.1934, 1), "19.3%");
  EXPECT_EQ(fmt_pct(-0.05, 0), "-5%");
}

TEST(StrUtil, SiSuffixes) {
  EXPECT_EQ(fmt_si(2.94e11), "294.0G");
  EXPECT_EQ(fmt_si(1500.0, 1), "1.5K");
  EXPECT_EQ(fmt_si(2.0e6, 0), "2M");
  EXPECT_EQ(fmt_si(12.0, 0), "12");
}

TEST(StrUtil, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(split("x,", ',').size(), 2u);
}

TEST(StrUtil, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("hadas_core", "hadas"));
  EXPECT_FALSE(starts_with("ha", "hadas"));
  EXPECT_EQ(to_lower("TX2 GPU"), "tx2 gpu");
}

TEST(StrUtil, HexU64IsSixteenDigitsAndRoundTrips) {
  EXPECT_EQ(hex_u64(0), "0000000000000000");
  EXPECT_EQ(hex_u64(0xABCDEFull), "0000000000abcdef");
  EXPECT_EQ(hex_u64(~std::uint64_t{0}), "ffffffffffffffff");
  // Byte-identical to the printf form the durable files were written with.
  for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{0x5E21},
                          std::uint64_t{0x8000000000000000ull},
                          std::uint64_t{0x0123456789abcdefull}}) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    EXPECT_EQ(hex_u64(v), buf);
    EXPECT_EQ(parse_hex_u64("v", hex_u64(v)), v);
  }
  EXPECT_EQ(parse_hex_u64("seed", "ABCdef"), 0xABCDEFull);
  EXPECT_EQ(parse_hex_u64("seed", "7"), 7u);
  for (const char* bad : {"", "0x10", "12g4", " 1", "1 ", "-1",
                          "10000000000000000"})
    EXPECT_THROW(parse_hex_u64("seed", bad), std::invalid_argument) << bad;
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"name", "value"}, {Align::kLeft, Align::kRight});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "100"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| b     |   100 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

TEST(TextTable, RejectsBadRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

}  // namespace

#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace zombie {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(CaseTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLowerAscii("MiXeD 123 Case"), "mixed 123 case");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(StripTest, Whitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripAsciiWhitespace("\t\na b\r\n"), "a b");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("bar", "foobar"));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
  // Long outputs are not truncated.
  std::string lots = StrFormat("%0500d", 1);
  EXPECT_EQ(lots.size(), 500u);
}

TEST(ParseInt64Test, AcceptsWholeIntegers) {
  EXPECT_EQ(ParseInt64("0").value(), 0);
  EXPECT_EQ(ParseInt64("12000").value(), 12000);
  EXPECT_EQ(ParseInt64("-1").value(), -1);
  EXPECT_EQ(ParseInt64("9223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808").value(), INT64_MIN);
}

TEST(ParseInt64Test, RejectsAnythingElse) {
  for (const char* bad :
       {"", "abc", "12x", "x12", " 1", "1 ", "+1", "1.5", "1e3", "--1",
        "9223372036854775808", "-9223372036854775809", "0x10"}) {
    StatusOr<int64_t> v = ParseInt64(bad);
    EXPECT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ParseFiniteDoubleTest, AcceptsWholeFiniteNumbers) {
  EXPECT_EQ(ParseFiniteDouble("0").value(), 0.0);
  EXPECT_EQ(ParseFiniteDouble("0.3").value(), 0.3);
  EXPECT_EQ(ParseFiniteDouble("-2.5").value(), -2.5);
  EXPECT_EQ(ParseFiniteDouble("1e3").value(), 1000.0);
  EXPECT_EQ(ParseFiniteDouble("100").value(), 100.0);
}

TEST(ParseFiniteDoubleTest, RejectsAnythingElse) {
  for (const char* bad : {"", "abc", "0.3x", " 1", "1 ", "+1", "inf", "-inf",
                          "infinity", "nan", "NaN", "1e999", "1,5", "."}) {
    StatusOr<double> v = ParseFiniteDouble(bad);
    EXPECT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

}  // namespace
}  // namespace zombie

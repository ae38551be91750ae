#include "util/args.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace edgerep {
namespace {

Args make_args(std::vector<const char*> argv) {
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EqualsSyntax) {
  const Args a = make_args({"prog", "--size=42"});
  EXPECT_TRUE(a.has("size"));
  EXPECT_EQ(a.get_int("size", 0), 42);
}

TEST(Args, SpaceSyntax) {
  const Args a = make_args({"prog", "--name", "value"});
  EXPECT_EQ(a.get("name", ""), "value");
}

TEST(Args, BareBooleanFlag) {
  const Args a = make_args({"prog", "--verbose"});
  EXPECT_TRUE(a.get_bool("verbose", false));
}

TEST(Args, BooleanSpellings) {
  const Args a = make_args({"prog", "--a=yes", "--b=off", "--c=1", "--d=false"});
  EXPECT_TRUE(a.get_bool("a", false));
  EXPECT_FALSE(a.get_bool("b", true));
  EXPECT_TRUE(a.get_bool("c", false));
  EXPECT_FALSE(a.get_bool("d", true));
}

TEST(Args, Defaults) {
  const Args a = make_args({"prog"});
  EXPECT_EQ(a.get_int("missing", 7), 7);
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(a.get_bool("missing", true));
}

TEST(Args, DoubleParsing) {
  const Args a = make_args({"prog", "--rate=0.25"});
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0.0), 0.25);
}

TEST(Args, MalformedIntThrows) {
  const Args a = make_args({"prog", "--n=12x"});
  EXPECT_THROW((void)a.get_int("n", 0), std::runtime_error);
}

TEST(Args, CountAcceptsOnlyIntegersInRange) {
  const Args a = make_args(
      {"prog", "--size", "-5", "--serve=70000", "--k=3", "--f=2.5"});
  EXPECT_EQ(a.get_count("missing", 7), 7u);
  EXPECT_EQ(a.get_count("k", 0), 3u);
  EXPECT_EQ(a.get_count("serve", 0), 70000u);
  auto error = [&a](const char* name, std::uint64_t max) {
    try {
      (void)a.get_count(name, 0, max);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(error("size", 1u << 31),
            "--size: expected an integer in [0, 2147483648], got '-5'");
  EXPECT_EQ(error("serve", 65535),
            "--serve: expected an integer in [0, 65535], got '70000'");
  EXPECT_EQ(error("f", 10), "--f: expected integer, got '2.5'");
}

TEST(Args, MalformedBoolThrows) {
  const Args a = make_args({"prog", "--b=maybe"});
  EXPECT_THROW((void)a.get_bool("b", false), std::runtime_error);
}

TEST(Args, Positional) {
  const Args a = make_args({"prog", "input.txt", "--n=1", "out.txt"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  EXPECT_EQ(a.positional()[1], "out.txt");
  EXPECT_EQ(a.program(), "prog");
}

TEST(Args, SeedHexAndDecimal) {
  const Args a = make_args({"prog", "--s1=0xff", "--s2=123"});
  EXPECT_EQ(a.get_seed("s1", 0), 255u);
  EXPECT_EQ(a.get_seed("s2", 0), 123u);
  EXPECT_EQ(a.get_seed("missing", 9), 9u);
}

TEST(Args, NegativeNumberAsValue) {
  // A negative number after a flag must bind as its value, not a new flag.
  const Args a = make_args({"prog", "--delta", "-5"});
  EXPECT_EQ(a.get_int("delta", 0), -5);
}

}  // namespace
}  // namespace edgerep

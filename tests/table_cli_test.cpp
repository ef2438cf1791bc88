// Tests for the ASCII table writer and the CLI parser.
#include <gtest/gtest.h>

#include <sstream>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace bfce::util {
namespace {

TEST(Table, AlignsColumnsAndSeparates) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "123456"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("------"), std::string::npos);
  // Four lines: header, separator, two rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b", "c"});
  t.add_row({"1", "2", "3"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b,c\n1,2,3\n");
}

TEST(Table, RowsCounts) {
  Table t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(std::int64_t{-7}), "-7");
}

TEST(Cli, ParsesTypedOptions) {
  const char* argv[] = {"prog",         "--trials=25", "--eps=0.1",
                        "--csv",        "--name=T2",   "--shards=-1",
                        "--delta=1e-2"};
  Cli cli(7, argv, {"trials", "eps", "name", "shards", "delta"});
  EXPECT_EQ(cli.get_int("trials", 0), 25);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.1);
  EXPECT_EQ(cli.get_int("shards", 0), -1);
  EXPECT_DOUBLE_EQ(cli.get_double("delta", 0.0), 0.01);
  EXPECT_EQ(cli.get("name", ""), "T2");
  EXPECT_TRUE(cli.csv());
  EXPECT_TRUE(cli.has("trials"));
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, FallbacksApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv, {"trials"});
  EXPECT_EQ(cli.get_int("trials", 7), 7);
  EXPECT_EQ(cli.get_u64("seed", 123), 123u);  // default overridable
  EXPECT_FALSE(cli.csv());
}

TEST(Cli, SeedHelperDefaultsAndParses) {
  const char* argv[] = {"prog", "--seed=99"};
  Cli cli(2, argv, {});
  EXPECT_EQ(cli.seed(), 99u);
}

TEST(CliDeathTest, RejectsUnknownOption) {
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_EXIT((Cli(2, argv, {"trials"})), ::testing::ExitedWithCode(2),
              "unknown option");
}

TEST(CliDeathTest, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_EXIT((Cli(2, argv, {})), ::testing::ExitedWithCode(2),
              "unexpected positional");
}

// A numeric option parses in full or exits 2 naming the option and the
// value; none falls back to a prefix or wraps around.
TEST(CliDeathTest, RejectsNonNumericSeed) {
  const char* argv[] = {"prog", "--seed=abc"};
  const Cli cli(2, argv, {});
  EXPECT_EXIT(static_cast<void>(cli.seed()), ::testing::ExitedWithCode(2),
              "invalid value 'abc' for option '--seed'");
}

TEST(CliDeathTest, RejectsExponentInIntegerOption) {
  const char* argv[] = {"prog", "--trials=1e4"};
  const Cli cli(2, argv, {"trials"});
  EXPECT_EXIT(cli.get_int("trials", 0), ::testing::ExitedWithCode(2),
              "invalid value '1e4' for option '--trials'");
}

TEST(CliDeathTest, RejectsTrailingCharacters) {
  const char* argv[] = {"prog", "--n=5x"};
  const Cli cli(2, argv, {"n"});
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "invalid value '5x' for option '--n'");
}

TEST(CliDeathTest, RejectsListInDoubleOption) {
  const char* argv[] = {"prog", "--eps=0.05,0.1"};
  const Cli cli(2, argv, {"eps"});
  EXPECT_EXIT(cli.get_double("eps", 0.0), ::testing::ExitedWithCode(2),
              "invalid value '0.05,0.1' for option '--eps'");
}

TEST(CliDeathTest, RejectsNegativeUnsignedOption) {
  const char* argv[] = {"prog", "--seed=-1"};
  const Cli cli(2, argv, {});
  EXPECT_EXIT(cli.get_u64("seed", 0), ::testing::ExitedWithCode(2),
              "invalid value '-1' for option '--seed'");
}

}  // namespace
}  // namespace bfce::util

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/text.hpp"
#include "util/wire.hpp"

namespace bsched {
namespace {

TEST(Error, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "broken precondition");
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_STREQ(e.what(), "broken precondition");
  }
}

TEST(Error, LiteralAndBuiltMessagesThrowTheSameText) {
  // A literal binds the const char* overload, a built message the
  // std::string one; both surface the exact text.
  try {
    require(false, "util: x");
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_STREQ(e.what(), "util: x");
  }
  const std::string part = "x";
  try {
    require(false, "util: " + part);
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_STREQ(e.what(), "util: x");
  }
}

TEST(Rng, DeterministicInSeed) {
  rng a{42}, b{42}, c{43};
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds must give different streams";
}

TEST(Rng, BelowStaysInRange) {
  rng g{7};
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(g.below(bound), bound);
    }
  }
}

TEST(Rng, BelowCoversAllResidues) {
  rng g{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(g.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  // bernoulli(p) compares a uniform draw in [0, 1) against p: p = 0
  // never succeeds, p = 1 always does, and p = 0.5 half the time.
  rng g{3};
  int halves = 0;
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_FALSE(g.bernoulli(0.0));
    ASSERT_TRUE(g.bernoulli(1.0));
    halves += g.bernoulli(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(halves / 10'000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  rng g{5};
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += g.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.02);
}

TEST(RngDerive, StableGoldenValues) {
  // Pinned so sweep replication seeds (api::replicate) never silently
  // change between builds or platforms.
  EXPECT_EQ(rng::derive(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(rng::derive(0, 1), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(rng::derive(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(rng::derive(42, 7), 0xccf635ee9e9e2fa4ULL);
  // The variadic form nests left to right.
  EXPECT_EQ(rng::derive(42, 7, 3), rng::derive(rng::derive(42, 7), 3));
  EXPECT_EQ(rng::derive(42, 7, 3), 0x19807f83a2b4fd77ULL);
}

TEST(RngDerive, MatchesSplitmixSequence) {
  // derive(seed, i) is the i-th output of the splitmix64 stream started
  // at seed — the derivation is a random-access view of that stream.
  std::uint64_t state = 42;
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rng::derive(42, i), splitmix64(state)) << i;
  }
}

TEST(RngDerive, AdjacentStreamsAreUncorrelated) {
  // Adjacent streams must look independent: across many adjacent pairs,
  // outputs never collide and agree on roughly half their bits (as two
  // independent uniform words would).
  std::set<std::uint64_t> seen;
  std::uint64_t matching_bits = 0;
  constexpr int pairs = 4096;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t a = rng::derive(7, i);
    const std::uint64_t b = rng::derive(7, i + 1);
    seen.insert(a);
    matching_bits += static_cast<std::uint64_t>(
        std::popcount(~(a ^ b)));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(pairs));
  const double mean_matching =
      static_cast<double>(matching_bits) / pairs;
  EXPECT_NEAR(mean_matching, 32.0, 0.5);

  // Seeds a single increment apart also give unrelated streams.
  EXPECT_NE(rng::derive(7, 0), rng::derive(8, 0));
}

TEST(Csv, EscapesSpecialCharacters) {
  // Fields holding a separator, a quote or a newline are quoted per
  // RFC 4180, with quotes doubled; plain fields are written as they are.
  const std::string path = testing::TempDir() + "/bsched_csv_escape.csv";
  {
    csv_writer w{path,
                 {"plain", "with,comma", "with\"quote", "with\nnewline"}};
    w.row(std::vector<std::string>{"a", "b,c", "\"", ""});
  }
  std::ifstream in{path};
  const std::string text{std::istreambuf_iterator<char>{in}, {}};
  EXPECT_EQ(text,
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n"
            "a,\"b,c\",\"\"\"\",\n");
  std::remove(path.c_str());
}

TEST(Csv, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.25, 2), "0.25");
  EXPECT_EQ(format_double(-3.10, 2), "-3.1");
}

TEST(Csv, WritesWellFormedFile) {
  const std::string path = testing::TempDir() + "/bsched_csv_test.csv";
  {
    csv_writer w{path, {"t", "value"}};
    w.row({0.0, 1.0});
    w.row({0.5, 2.25});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,value");
  std::getline(in, line);
  EXPECT_EQ(line, "0,1");
  std::getline(in, line);
  EXPECT_EQ(line, "0.5,2.25");
  std::remove(path.c_str());
}

TEST(Csv, RejectsWrongColumnCount) {
  const std::string path = testing::TempDir() + "/bsched_csv_cols.csv";
  csv_writer w{path, {"a", "b"}};
  EXPECT_THROW(w.row(std::vector<std::string>{"only-one"}), error);
  std::remove(path.c_str());
}

TEST(TextTable, DetectsNumericCells) {
  // Cells that parse fully as a signed decimal (a trailing '%' allowed)
  // are right-aligned; text cells are left-aligned.
  text_table t{{"value"}};
  for (const char* cell : {"42", "-3.5", "12.3%", "CL 250", "7x"}) {
    t.row({cell});
  }
  EXPECT_EQ(t.str(),
            "value \n"
            "------\n"
            "    42\n"
            "  -3.5\n"
            " 12.3%\n"
            "CL 250\n"
            "7x    \n");
}

TEST(TextTable, RendersAlignedRows) {
  text_table t{{"name", "value"}};
  t.row({"alpha", "1.5"});
  t.row({"b", "22.25"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // Numeric column is right-aligned: "22.25" ends at the same column as
  // " 1.5" does wider.
  EXPECT_NE(s.find("  1.5"), std::string::npos);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TextTable, PadsShortRows) {
  text_table t{{"a", "b", "c"}};
  t.row({"only"});
  EXPECT_NO_THROW({ const auto s = t.str(); });
}

TEST(Text, ShortestDoubleRoundTripsExactly) {
  // The codec's portability contract: to_chars shortest form parses back
  // to the identical bits, including awkward decimals and tiny values.
  for (const double v : {0.0, 1.0, -1.0, 0.1, 5.5, 1.0 / 3.0, 6.1875e-4,
                         1e-9, 123456.789, -2.5e17}) {
    const std::string text = shortest_double(v);
    EXPECT_EQ(parse_number<double>(text, "test"), v) << text;
  }
  EXPECT_EQ(shortest_double(5.5), "5.5");
  EXPECT_EQ(shortest_double(1.0), "1");
}

TEST(Text, ParsersRejectTrailingGarbage) {
  EXPECT_EQ(parse_u64("42", "test"), 42u);
  EXPECT_THROW((void)parse_number<double>("1.5x", "test"), error);
  EXPECT_THROW((void)parse_number<double>("", "test"), error);
  EXPECT_THROW((void)parse_u64("-3", "test"), error);
  try {
    (void)parse_number<double>("nope", "field mean");
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_NE(std::string{e.what()}.find("field mean"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("nope"), std::string::npos);
  }
}

// ------------------------------------------------------------------ wire

/// All tokens of `text` split on `sep`.
std::vector<std::string_view> split_all(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  wire::splitter s{text, sep};
  for (std::string_view t; s.next(t);) out.push_back(t);
  return out;
}

/// The message of the bsched::error `f` throws.
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected bsched::error";
  return {};
}

TEST(Wire, SplitterYieldsEveryTokenEmptyOnesIncluded) {
  using v = std::vector<std::string_view>;
  EXPECT_EQ(split_all("a b c", ' '), (v{"a", "b", "c"}));
  EXPECT_EQ(split_all("a,,b,", ','), (v{"a", "", "b", ""}));
  EXPECT_EQ(split_all("", ','), (v{""}));
  EXPECT_EQ(split_all("0-1-0", '-'), (v{"0", "1", "0"}));
}

TEST(Wire, KeyValueSplitsAtTheFirstEquals) {
  const auto kv = wire::split_kv("label=a=b");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->key, "label");
  EXPECT_EQ(kv->value, "a=b");
  EXPECT_EQ(wire::split_kv("=v")->key, "");
  EXPECT_EQ(wire::split_kv("k=")->value, "");
  EXPECT_FALSE(wire::split_kv("bare").has_value());
}

TEST(Wire, ReaderCountsLinesAndDropsOneCarriageReturn) {
  wire::reader r{"one\r\ntwo x=1\n\nlast", "test"};
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.line(), "one");
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.tag(), "two");
  EXPECT_EQ(r.u64("x"), 1u);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.line(), "");
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.line(), "last");
  EXPECT_FALSE(r.next());
  EXPECT_EQ(error_of([&] { r.fail("why"); }), "test: line 4: why");
}

TEST(Wire, ErrorsNameOriginLineAndSection) {
  wire::reader r{"rec n=zero count=2 1:2\n", "dist::codec"};
  ASSERT_TRUE(r.next());
  r.section("cell 3");
  EXPECT_EQ(error_of([&] { (void)r.u64("n"); }),
            "dist::codec: line 1 (cell 3): n: not a valid number: 'zero'");
  r.section("header");
  EXPECT_EQ(error_of([&] { (void)r.value("m"); }),
            "dist::codec: line 1 (header): missing field 'm' in "
            "'rec n=zero count=2 1:2'");
  EXPECT_EQ(error_of([&] {
              (void)r.pairs<std::pair<double, double>>("count", "pair");
            }),
            "dist::codec: line 1 (header): pair count mismatch: header says "
            "2, line carries 1");
  // Numeric extremes are refused, not wrapped or clamped.
  wire::reader big{"r n=18446744073709551616 x=1e309 y=-0\n", "t"};
  ASSERT_TRUE(big.next());
  EXPECT_THROW((void)big.u64("n"), error);
  EXPECT_THROW((void)big.real("x"), error);
  EXPECT_EQ(big.real("y"), 0.0);
}

/// A pair the wire reader builds: a double and a count.
struct real_count {
  double value = 0;
  std::uint64_t count = 0;

  friend bool operator==(const real_count&, const real_count&) = default;
};

TEST(Wire, PairListReadsCountPrefixedPairs) {
  wire::reader r{"lifetime values=2 0.5:1 2:3\n", "t"};
  ASSERT_TRUE(r.next());
  const auto es = r.pairs<real_count, std::uint64_t>("values", "value");
  ASSERT_EQ(es.size(), 2u);
  EXPECT_EQ(es[1], (real_count{2.0, 3}));
  // The second element reads as its own type: a count is an integer.
  wire::reader fraction{"x n=1 0.5:1.5\n", "t"};
  ASSERT_TRUE(fraction.next());
  const auto read_pairs = [](const wire::reader& rd) {
    return rd.pairs<real_count, std::uint64_t>("n", "pair");
  };
  EXPECT_THROW((void)read_pairs(fraction), error);
  wire::reader bad{"x n=1 7\n", "t"};
  ASSERT_TRUE(bad.next());
  EXPECT_EQ(error_of([&] { (void)read_pairs(bad); }),
            "t: line 1: malformed pair '7' (want a:b)");
  // A huge untrusted count fails on the mismatch, it does not reserve.
  wire::reader huge{"x n=18446744073709551615 1:1\n", "t"};
  ASSERT_TRUE(huge.next());
  EXPECT_THROW((void)read_pairs(huge), error);
}

TEST(Wire, ExpectsRecords) {
  wire::reader r{"label=a b=c\nend\nmore\n", "t"};
  EXPECT_EQ(r.expect_text("label"), "a b=c");
  EXPECT_EQ(error_of([&] { r.expect("cell"); }),
            "t: line 2: expected 'cell' record, got 'end'");
  ASSERT_TRUE(r.next());
  EXPECT_EQ(error_of([&] { (void)r.expect_text("x"); }),
            "t: line 3: unexpected end of stream (wanted x)");
}

}  // namespace
}  // namespace bsched

// Unit tests for the util substrate: tables, plots, CSV, RNG, string
// helpers.

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/plot.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <gtest/gtest.h>

namespace au = armstice::util;

TEST(Table, RendersHeaderAndRows) {
    au::Table t("Title");
    t.header({"a", "bb"}).row({"1", "2"}).row({"333", "4"});
    const std::string s = t.render();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
    EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
    au::Table t;
    t.header({"a", "b"});
    EXPECT_THROW(t.row({"only-one"}), au::Error);
}

TEST(Table, RowsBeforeHeaderThrow) {
    au::Table t;
    EXPECT_THROW(t.row({"x"}), au::Error);
}

TEST(Table, NumFormatsFixed) {
    EXPECT_EQ(au::Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(au::Table::num(2.0, 0), "2");
}

TEST(Csv, EscapesSpecialCharacters) {
    au::Csv csv;
    csv.header({"a", "b"});
    csv.row({"plain", "with,comma"});
    csv.row({"quote\"inside", "multi\nline"});
    const std::string s = csv.render();
    EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(s.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Csv, RowWidthCheckedAgainstHeader) {
    au::Csv csv;
    csv.header({"a", "b"});
    EXPECT_THROW(csv.row({"x"}), au::Error);
}

TEST(Plot, RendersAllSeriesMarkers) {
    au::Plot p("t", "x", "y");
    p.add_series({"s1", {1, 2, 3}, {1, 4, 9}});
    p.add_series({"s2", {1, 2, 3}, {9, 4, 1}});
    const std::string s = p.render();
    EXPECT_NE(s.find("s1"), std::string::npos);
    EXPECT_NE(s.find("s2"), std::string::npos);
    EXPECT_NE(s.find('*'), std::string::npos);
    EXPECT_NE(s.find('o'), std::string::npos);
}

TEST(Plot, LogAxisHandlesWideRange) {
    au::Plot p("t", "x", "y");
    p.add_series({"s", {1, 10, 100}, {1, 1000, 1e6}});
    EXPECT_NO_THROW(p.log_y().render());
}

TEST(Plot, RejectsBadSeries) {
    au::Plot p("t", "x", "y");
    EXPECT_THROW(p.add_series({"s", {1, 2}, {1}}), au::Error);
    EXPECT_THROW(p.add_series({"s", {}, {}}), au::Error);
    au::Plot empty("t", "x", "y");
    EXPECT_THROW(empty.render(), au::Error);
}

TEST(Rng, DeterministicForSameSeed) {
    au::Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    au::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
    au::Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-2.0, 3.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, MeanOfUniformApproxHalf) {
    au::Rng rng(99);
    constexpr int kDraws = 20000;
    double sum = 0;
    for (int i = 0; i < kDraws; ++i) sum += rng.next_double();
    EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Str, FormatBehavesLikePrintf) {
    EXPECT_EQ(au::format("%d-%s-%.1f", 7, "x", 2.5), "7-x-2.5");
    EXPECT_EQ(au::fixed(1.005, 2), "1.00");  // printf rounding of the double
}

TEST(Str, JoinWithSeparator) {
    EXPECT_EQ(au::join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(au::join({}, ","), "");
    EXPECT_EQ(au::join({"solo"}, ","), "solo");
}

TEST(Units, FactorsAreConsistent) {
    EXPECT_DOUBLE_EQ(au::GiB, 1024.0 * 1024.0 * 1024.0);
    EXPECT_DOUBLE_EQ(au::GB, 1e9);
    EXPECT_DOUBLE_EQ(32 * au::GiB / au::GB, 34.359738368);
    EXPECT_DOUBLE_EQ(2.2 * au::GHz, 2.2e9);
}

TEST(Error, CheckMacroThrowsWithContext) {
    try {
        ARMSTICE_CHECK(1 == 2, "custom context");
        FAIL() << "should have thrown";
    } catch (const au::Error& e) {
        EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
    }
}

// Tests of the command-line parser behind example_armstice_cli.

#include "util/cli.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace au = armstice::util;

namespace {

au::Cli make_cli() {
    au::Cli cli("prog", "test program");
    cli.flag("verbose", "talk more")
        .option("nodes", "node count", "1")
        .option("system", "system name")
        .positional("command", "what to do");
    return cli;
}

void parse(au::Cli& cli, std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    cli.parse(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Cli, DefaultsApply) {
    auto cli = make_cli();
    parse(cli, {"run"});
    EXPECT_EQ(cli.get("nodes"), "1");
    EXPECT_EQ(cli.get_int("nodes", 1, 64), 1);
    EXPECT_FALSE(cli.has("verbose"));
    ASSERT_EQ(cli.positionals().size(), 1u);
    EXPECT_EQ(cli.positionals()[0], "run");
}

TEST(Cli, EqualsAndSpaceSyntax) {
    auto cli = make_cli();
    parse(cli, {"run", "--nodes=8", "--system", "A64FX"});
    EXPECT_EQ(cli.get_int("nodes", 1, 64), 8);
    EXPECT_EQ(cli.get("system"), "A64FX");
}

TEST(Cli, FlagsSetWithoutValue) {
    auto cli = make_cli();
    parse(cli, {"--verbose", "run"});
    EXPECT_TRUE(cli.has("verbose"));
}

TEST(Cli, UnknownOptionThrowsWithUsage) {
    auto cli = make_cli();
    try {
        parse(cli, {"--bogus"});
        FAIL();
    } catch (const au::Error& e) {
        EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("usage:"), std::string::npos);
    }
}

TEST(Cli, MissingValueThrows) {
    auto cli = make_cli();
    EXPECT_THROW(parse(cli, {"--system"}), au::Error);
}

TEST(Cli, FlagWithValueThrows) {
    auto cli = make_cli();
    EXPECT_THROW(parse(cli, {"--verbose=yes"}), au::Error);
}

TEST(Cli, TypedAccessorsValidate) {
    auto cli = make_cli();
    parse(cli, {"--nodes", "notanumber"});
    EXPECT_THROW((void)cli.get_int("nodes", 1, 64), au::Error);
    auto cli2 = make_cli();
    parse(cli2, {"--nodes", "2.5"});
    EXPECT_DOUBLE_EQ(cli2.get_double("nodes"), 2.5);
}

TEST(Cli, MissingOptionThrowsOnGet) {
    auto cli = make_cli();
    parse(cli, {"run"});
    EXPECT_THROW((void)cli.get("system"), au::Error);  // no default
}

TEST(Cli, UsageListsEverything) {
    const auto cli = make_cli();
    const std::string u = cli.usage();
    EXPECT_NE(u.find("--verbose"), std::string::npos);
    EXPECT_NE(u.find("--nodes <v>"), std::string::npos);
    EXPECT_NE(u.find("(default: 1)"), std::string::npos);
    EXPECT_NE(u.find("<command>"), std::string::npos);
}

TEST(Cli, MultiplePositionalsPreserveOrder) {
    auto cli = make_cli();
    parse(cli, {"run", "hpcg", "--nodes", "4", "extra"});
    ASSERT_EQ(cli.positionals().size(), 3u);
    EXPECT_EQ(cli.positionals()[1], "hpcg");
    EXPECT_EQ(cli.positionals()[2], "extra");
}

namespace {

/// Values every integer reader must reject rather than narrow or wrap.
std::vector<std::string> bad_counts() {
    return {"2abc",       "0",  "-1", "", "4294967298", "99999999999999999999",
            std::to_string(au::kMaxJobs + 1)};
}

} // namespace

TEST(Cli, IntReaderRejectsBadValuesInsteadOfNarrowing) {
    for (const std::string& bad : bad_counts()) {
        auto cli = make_cli();
        const std::string arg = "--nodes=" + bad;
        parse(cli, {arg.c_str()});
        EXPECT_THROW((void)cli.get_int("nodes", 1, au::kMaxJobs), au::Error)
            << "'" << bad << "'";
    }
    for (const std::string& good :
         std::vector<std::string>{"1", "7", std::to_string(au::kMaxJobs)}) {
        auto cli = make_cli();
        const std::string arg = "--nodes=" + good;
        parse(cli, {arg.c_str()});
        EXPECT_EQ(cli.get_int("nodes", 1, au::kMaxJobs), std::stoi(good));
    }
    auto cli = make_cli();
    parse(cli, {"--nodes", "-1"});
    EXPECT_EQ(cli.get_int("nodes", -1, 65535), -1);  // bounds are per option
}

TEST(Cli, U64ReaderRejectsSignsOverflowAndJunk) {
    // Seeds used to go through a signed reader and a cast: "-1" ran as
    // 18446744073709551615 and 99999999999999999999 as 9223372036854775807.
    for (const std::string bad :
         {"-1", "18446744073709551616", "99999999999999999999", "12x", "", "+1", " 1"}) {
        auto cli = make_cli();
        const std::string arg = "--nodes=" + bad;
        parse(cli, {arg.c_str()});
        EXPECT_THROW((void)cli.get_u64("nodes"), au::Error) << "'" << bad << "'";
    }
    for (const auto& [text, want] :
         std::vector<std::pair<std::string, std::uint64_t>>{
             {"0", 0}, {"1", 1}, {"18446744073709551615", UINT64_MAX}}) {
        auto cli = make_cli();
        const std::string arg = "--nodes=" + text;
        parse(cli, {arg.c_str()});
        EXPECT_EQ(cli.get_u64("nodes"), want) << text;
    }
}

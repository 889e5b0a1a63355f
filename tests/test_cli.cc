/**
 * @file
 * End-to-end tests of the `fracdram` CLI: each subcommand must run,
 * exit cleanly, and print the expected landmarks. The binary path is
 * injected by CMake (FRACDRAM_CLI_PATH).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace
{

/** Run a CLI invocation; returns {exit_code, stdout}. */
std::pair<int, std::string>
runCli(const std::string &args)
{
    const std::string cmd =
        std::string(FRACDRAM_CLI_PATH) + " " + args + " 2>/dev/null";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    std::array<char, 512> buf;
    while (std::fgets(buf.data(), buf.size(), pipe))
        out += buf.data();
    const int status = pclose(pipe);
    return {WEXITSTATUS(status), out};
}

} // namespace

TEST(Cli, InfoListsAllGroups)
{
    const auto [code, out] = runCli("info");
    EXPECT_EQ(code, 0);
    for (const char *vendor : {"SK Hynix", "Samsung", "TimeTec",
                               "Corsair", "Micron", "Elpida", "Nanya"})
        EXPECT_NE(out.find(vendor), std::string::npos) << vendor;
    EXPECT_NE(out.find("DDR4"), std::string::npos);
}

TEST(Cli, CapabilityProbesGroup)
{
    const auto [code, out] = runCli("capability --group J");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("Frac                 no"), std::string::npos);
}

TEST(Cli, FracShowsVoltageWalk)
{
    const auto [code, out] = runCli("frac --group B --fracs 2");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("1.500 V"), std::string::npos);
    EXPECT_NE(out.find("readout weight"), std::string::npos);
}

TEST(Cli, MajReportsCoverage)
{
    const auto [code, out] = runCli("maj --group B");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("three-row MAJ3"), std::string::npos);
    EXPECT_NE(out.find("{1,1,0}"), std::string::npos);
}

TEST(Cli, MajRejectsNonMajorityGroup)
{
    const auto [code, out] = runCli("maj --group E");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("no in-memory majority"), std::string::npos);
}

TEST(Cli, PufPrintsStats)
{
    const auto [code, out] = runCli("puf --group E --challenges 2");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("intra-HD"), std::string::npos);
    EXPECT_NE(out.find("inter-HD"), std::string::npos);
}

TEST(Cli, TrngEmitsHex)
{
    const auto [code, out] = runCli("trng --bits 64");
    EXPECT_EQ(code, 0);
    // 64 bits = 16 hex chars plus the newline.
    std::string hex = out;
    while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r'))
        hex.pop_back();
    EXPECT_EQ(hex.size(), 16u);
    for (const char c : hex)
        EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << c;
}

TEST(Cli, DecoderReportsModel)
{
    const auto [code, out] = runCli("decoder --group B");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("three-row sets      yes"), std::string::npos);
}

TEST(Cli, MalformedIntegerFlagFails)
{
    // The whole value must be an integer: "3x" is not 3.
    const auto [code, out] = runCli("puf --fracs 3x");
    EXPECT_NE(code, 0);
    EXPECT_EQ(out.find("intra-HD"), std::string::npos);
}

TEST(Cli, UnknownCommandUsage)
{
    const auto [code, out] = runCli("bogus");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

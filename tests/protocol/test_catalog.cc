/** Unit tests for protocol/catalog. */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "protocol/catalog.hh"
#include "util/strutil.hh"

namespace snoop {
namespace {

TEST(Catalog, ContainsAllSevenProtocols)
{
    const auto &cat = protocolCatalog();
    EXPECT_EQ(cat.size(), 7u);
}

TEST(Catalog, Section22ModMemberships)
{
    // "Modification 1 is included in the Illinois, Dragon, and RWB
    // protocols."
    for (const char *name : {"Illinois", "Dragon", "RWB"})
        EXPECT_TRUE(findProtocol(name)->mod1) << name;
    for (const char *name : {"WriteOnce", "Synapse", "Berkeley"})
        EXPECT_FALSE(findProtocol(name)->mod1) << name;

    // "Modification 2 is included in the Berkeley and Dragon protocols."
    for (const char *name : {"Berkeley", "Dragon"})
        EXPECT_TRUE(findProtocol(name)->mod2) << name;
    for (const char *name : {"WriteOnce", "Synapse", "Illinois", "RWB"})
        EXPECT_FALSE(findProtocol(name)->mod2) << name;

    // "Modification 3 is included in all five protocols proposed as
    // improvements to Write-Once."
    for (const char *name :
         {"Synapse", "Illinois", "Berkeley", "Dragon", "RWB"})
        EXPECT_TRUE(findProtocol(name)->mod3) << name;
    EXPECT_FALSE(findProtocol("WriteOnce")->mod3);

    // "Modification 4 is included in the RWB and Dragon protocols."
    for (const char *name : {"RWB", "Dragon"})
        EXPECT_TRUE(findProtocol(name)->mod4) << name;
    for (const char *name :
         {"WriteOnce", "Synapse", "Illinois", "Berkeley"})
        EXPECT_FALSE(findProtocol(name)->mod4) << name;
}

TEST(Catalog, LookupIsCaseAndPunctuationInsensitive)
{
    EXPECT_TRUE(findProtocol("illinois").has_value());
    EXPECT_TRUE(findProtocol("ILLINOIS").has_value());
    EXPECT_TRUE(findProtocol("Write-Once").has_value());
    EXPECT_TRUE(findProtocol("write_once").has_value());
    EXPECT_TRUE(findProtocol(" dragon ").has_value());
}

TEST(Catalog, LookupAcceptsModStrings)
{
    auto c = findProtocol("13");
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, ProtocolConfig::fromModString("13"));
}

TEST(Catalog, UnknownNameReturnsNullopt)
{
    EXPECT_FALSE(findProtocol("firefly").has_value());
    EXPECT_FALSE(findProtocol("").has_value());
    EXPECT_FALSE(findProtocol("15").has_value());
}

/** findProtocol as it was written with lowered copies: the oracle
 * for the in-place comparison's accepted set. */
std::optional<ProtocolConfig>
copyingFindProtocol(const std::string &name)
{
    std::string key = toLower(trim(name));
    key.erase(std::remove_if(key.begin(), key.end(),
                             [](char c) { return c == '-' || c == '_'; }),
              key.end());
    for (const auto &p : protocolCatalog()) {
        if (key == toLower(p.name))
            return p.config;
    }
    if (!key.empty() &&
        std::all_of(key.begin(), key.end(),
                    [](char c) { return c >= '1' && c <= '4'; })) {
        return ProtocolConfig::fromModString(key);
    }
    return std::nullopt;
}

TEST(Catalog, InPlaceLookupAcceptsTheSameNames)
{
    // Catalog names and mod strings with flipped case, separators,
    // whitespace at either end or inside, and stray bytes; every one
    // must get the copying lookup's answer.
    std::mt19937_64 rng(0xca7a109);
    std::vector<std::string> bases{"", "0", "5", "12", "1234", "4321",
                                   "15", "writeonce", "illinoiss"};
    for (const auto &p : protocolCatalog())
        bases.push_back(p.name);
    const std::string noise = " \t-_-_xX1234.";
    size_t accepted = 0;
    for (int i = 0; i < 20000; ++i) {
        std::string name = bases[rng() % bases.size()];
        for (char &c : name) {
            if (rng() % 2)
                c = static_cast<char>(std::toupper(
                    static_cast<unsigned char>(c)));
        }
        for (int edits = static_cast<int>(rng() % 4); edits > 0;
             --edits) {
            size_t at = name.empty() ? 0 : rng() % (name.size() + 1);
            name.insert(at, 1, noise[rng() % noise.size()]);
        }
        auto got = findProtocol(name);
        auto want = copyingFindProtocol(name);
        ASSERT_EQ(got.has_value(), want.has_value()) << '"' << name << '"';
        if (got) {
            EXPECT_EQ(*got, *want) << name;
            ++accepted;
        }
    }
    // Both branches are exercised.
    EXPECT_GT(accepted, 2000u);
    EXPECT_LT(accepted, 18000u);
}

TEST(Catalog, NamesForConfigFindsIllinois)
{
    auto names = namesForConfig(ProtocolConfig::fromModString("13"));
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "Illinois");
}

TEST(Catalog, NamesForUnlistedConfigIsEmpty)
{
    EXPECT_TRUE(namesForConfig(ProtocolConfig::fromModString("12")).empty());
}

TEST(Catalog, WriteThroughIsMod4Alone)
{
    auto c = findProtocol("writethrough");
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, ProtocolConfig::fromModString("4"));
}

} // namespace
} // namespace snoop

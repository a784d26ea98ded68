#include "protocol/catalog.hh"

#include <cctype>
#include <string_view>

namespace snoop {

const std::vector<NamedProtocol> &
protocolCatalog()
{
    static const std::vector<NamedProtocol> catalog = {
        {"WriteOnce", ProtocolConfig::withMods(false, false, false, false),
         "[Good83] Goodman, ISCA 1983",
         "the baseline copy-back invalidation protocol"},
        {"Synapse", ProtocolConfig::withMods(false, false, true, false),
         "[Fran84] Frank, Electronics 1984",
         "invalidation on first write; no exclusive-on-miss"},
        {"Illinois", ProtocolConfig::withMods(true, false, true, false),
         "[PaPa84] Papamarcos/Patel, ISCA 1984",
         "its flush-and-supply-in-one-transaction is similar to mod2 "
         "but modeled as the memory-update path (Section 2.2)"},
        {"Berkeley", ProtocolConfig::withMods(false, true, true, false),
         "[KEWP85] Katz et al., ISCA 1985",
         "ownership-based direct supply"},
        {"Dragon", ProtocolConfig::withMods(true, true, true, true),
         "[McCr84] McCreight, 1984", "broadcast-update protocol"},
        {"RWB", ProtocolConfig::withMods(true, false, true, true),
         "[RuSe84] Rudolph/Segall, ISCA 1984",
         "can switch between invalidate and broadcast; modeled in "
         "broadcast mode"},
        {"WriteThrough", ProtocolConfig::withMods(false, false, false, true),
         "[Smit82] survey",
         "mod4 without mod1 degenerates to write-through (Section 2.2)"},
    };
    return catalog;
}

namespace {

bool
isSeparator(char c)
{
    return c == '-' || c == '_';
}

char
lowered(char c)
{
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/** @p key equals @p name ignoring case, with every '-' and '_' of
 * @p key skipped; compared in place, without a lowered copy. */
bool
sameName(std::string_view key, std::string_view name)
{
    size_t j = 0;
    for (char c : key) {
        if (isSeparator(c))
            continue;
        if (j == name.size() || lowered(c) != lowered(name[j]))
            return false;
        ++j;
    }
    return j == name.size();
}

} // namespace

std::optional<ProtocolConfig>
findProtocol(const std::string &name)
{
    // The name less surrounding whitespace (as trim() drops it).
    size_t b = 0, e = name.size();
    while (b < e && std::isspace(static_cast<unsigned char>(name[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(name[e - 1])))
        --e;
    const std::string_view key(name.data() + b, e - b);
    for (const auto &p : protocolCatalog()) {
        if (sameName(key, p.name))
            return p.config;
    }
    // Accept a bare modification string, including the empty string
    // (plain Write-Once) only when explicitly "writeonce" above.
    std::string mods;
    for (char c : key) {
        if (isSeparator(c))
            continue;
        if (c < '1' || c > '4')
            return std::nullopt;
        mods.push_back(c);
    }
    if (mods.empty())
        return std::nullopt;
    return ProtocolConfig::fromModString(mods);
}

std::vector<std::string>
namesForConfig(const ProtocolConfig &c)
{
    std::vector<std::string> names;
    for (const auto &p : protocolCatalog()) {
        if (p.config == c)
            names.push_back(p.name);
    }
    return names;
}

} // namespace snoop

#include "protocol/config.hh"

#include "util/contracts.hh"
#include "util/logging.hh"

namespace snoop {

ProtocolConfig
ProtocolConfig::fromModString(const std::string &mods)
{
    ProtocolConfig c;
    for (char ch : mods) {
        SNOOP_REQUIRE(ch >= '1' && ch <= '4',
                      "ProtocolConfig: bad modification character '%c' "
                      "(expected digits 1-4)", ch);
        switch (ch) {
          case '1':
            c.mod1 = true;
            break;
          case '2':
            c.mod2 = true;
            break;
          case '3':
            c.mod3 = true;
            break;
          case '4':
            c.mod4 = true;
            break;
        }
    }
    return c;
}

std::string
ProtocolConfig::modString() const
{
    std::string s;
    if (mod1)
        s += '1';
    if (mod2)
        s += '2';
    if (mod3)
        s += '3';
    if (mod4)
        s += '4';
    return s;
}

std::string
ProtocolConfig::name() const
{
    std::string s = "WriteOnce";
    for (char ch : modString()) {
        s += '+';
        s += ch;
    }
    return s;
}

unsigned
ProtocolConfig::index() const
{
    return (mod1 ? 1u : 0u) | (mod2 ? 2u : 0u) | (mod3 ? 4u : 0u) |
           (mod4 ? 8u : 0u);
}

ProtocolConfig
ProtocolConfig::fromIndex(unsigned idx)
{
    if (idx >= kProtocolCount)
        panic("ProtocolConfig::fromIndex: index %u out of range", idx);
    return ProtocolConfig{(idx & 1u) != 0, (idx & 2u) != 0,
                          (idx & 4u) != 0, (idx & 8u) != 0};
}

} // namespace snoop

#pragma once

/**
 * @file
 * Protocol configuration: the Write-Once protocol plus the four
 * independent modifications of Section 2.2 of the paper.
 *
 * The paper treats the design space as Write-Once extended by any
 * combination of:
 *   - mod1: load a block exclusive when no other cache raises the
 *           shared line (Illinois / Dragon / RWB).
 *   - mod2: a dirty cache supplies the block directly and takes
 *           ownership, without updating main memory (Berkeley / Dragon).
 *   - mod3: invalidate instead of write-word on the first write to a
 *           non-exclusive block (all five successor protocols).
 *   - mod4: broadcast writes keep all copies valid and updated
 *           (RWB / Dragon); only practical together with mod1.
 */

#include <string>

namespace snoop {

/** Number of protocol configurations (the range of index()). */
inline constexpr unsigned kProtocolCount = 16;

/** One point in the Write-Once modification design space. */
struct ProtocolConfig
{
    bool mod1 = false; ///< exclusive-on-miss when the shared line is low
    bool mod2 = false; ///< dirty cache supplies data, takes ownership
    bool mod3 = false; ///< invalidate instead of write-word broadcast
    bool mod4 = false; ///< broadcast-update writes, copies stay valid

    /** The unmodified Write-Once protocol. */
    static ProtocolConfig writeOnce() { return {}; }

    /** Construct from flags. */
    static ProtocolConfig
    withMods(bool m1, bool m2, bool m3, bool m4)
    {
        return ProtocolConfig{m1, m2, m3, m4};
    }

    /**
     * Construct from a compact spec string: a subset of the characters
     * '1'..'4', e.g. "14" for mods 1 and 4, "" for plain Write-Once.
     * Any other character is a precondition violation
     * (SNOOP_REQUIRE: exit 1).
     */
    static ProtocolConfig fromModString(const std::string &mods);

    /** Compact spec string, e.g. "14"; empty for plain Write-Once. */
    std::string modString() const;

    /** Human-readable name, e.g. "WriteOnce+1+4". */
    std::string name() const;

    /** Index 0..15 with bit i-1 set iff mod i is enabled. */
    unsigned index() const;

    /** Inverse of index(). */
    static ProtocolConfig fromIndex(unsigned idx);

    /**
     * True if broadcast writes update main memory. Plain write-word
     * does; mod3 replaces it with an invalidate (no memory traffic)
     * and mod3+mod4 broadcasts without a memory update (the
     * broadcasting cache takes write-back responsibility, Section 2.2
     * "Summary").
     */
    bool broadcastUpdatesMemory() const { return !mod3; }

    /**
     * True if the broadcasting cache keeps write-back responsibility
     * after a broadcast write (the mod3 + mod4 combination).
     */
    bool broadcasterTakesOwnership() const { return mod3 && mod4; }

    bool operator==(const ProtocolConfig &) const = default;
};

} // namespace snoop

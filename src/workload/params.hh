#pragma once

/**
 * @file
 * The three-stream probabilistic workload model of Section 2.3.
 *
 * The memory reference string is the probabilistic merge of three
 * streams - private blocks, shared read-only (sro) blocks, and
 * shared-writable (sw) blocks - with per-stream hit rates, read
 * fractions, already-modified probabilities, cache-supply
 * probabilities, and replacement write-back probabilities. Appendix A
 * of the paper gives the parameter values used in all experiments.
 */

#include <string>

#include "protocol/config.hh"
#include "util/expected.hh"

namespace snoop {

/** The sharing levels studied in the paper's experiments. */
enum class SharingLevel {
    OnePercent,    ///< p_private=0.99, p_sro=0.01, p_sw=0.00
    FivePercent,   ///< p_private=0.95, p_sro=0.03, p_sw=0.02
    TwentyPercent, ///< p_private=0.80, p_sro=0.15, p_sw=0.05
};

/** Display string, e.g. "5%". */
std::string to_string(SharingLevel level);

/** All three levels, in table order. */
inline constexpr SharingLevel kSharingLevels[] = {
    SharingLevel::OnePercent, SharingLevel::FivePercent,
    SharingLevel::TwentyPercent};

/**
 * The basic workload parameters of Section 2.3 (names follow the
 * paper). All probabilities are in [0,1]; the three stream
 * probabilities must sum to 1.
 */
struct WorkloadParams
{
    /** Mean processor execution cycles between memory requests. */
    double tau = 2.5;

    double pPrivate = 0.99; ///< P(reference is to a private block)
    double pSro = 0.01;     ///< P(reference is to a shared read-only block)
    double pSw = 0.00;      ///< P(reference is to a shared-writable block)

    double hPrivate = 0.95; ///< private-stream hit rate
    double hSro = 0.95;     ///< sro-stream hit rate
    double hSw = 0.5;       ///< sw-stream hit rate

    double rPrivate = 0.7;  ///< P(read | private reference)
    double rSw = 0.5;       ///< P(read | sw reference)

    /** P(block already modified | private write hit). */
    double amodPrivate = 0.7;
    /** P(block already modified | sw write hit). */
    double amodSw = 0.3;

    /** P(some other cache holds a requested sro block). */
    double csupplySro = 0.95;
    /** P(some other cache holds a requested sw block). */
    double csupplySw = 0.5;
    /** P(the holding cache has the block in state wback). */
    double wbCsupply = 0.3;

    /** P(replaced private block must be written back). */
    double repP = 0.2;
    /** P(replaced sw block must be written back). */
    double repSw = 0.5;

    /**
     * Structured validity check: an InvalidArgument error naming the
     * offending field if any probability is out of range or the
     * streams don't sum to 1 (within 1e-9). Library paths (sweep
     * cells, tryAnalyze) use this so one bad point stays one bad
     * point; a precondition states it as SNOOP_REQUIRE_OK(check())
     * (util/contracts.hh).
     */
    [[nodiscard]] Expected<void> check() const;

    /**
     * Apply the per-modification parameter adjustments the paper
     * specifies (Section 3.3 and the Appendix A note):
     *  - mod1:          repP 0.2 -> 0.3
     *  - mod2 or mod3:  repSw 0.5 -> 0.6 (0.7 if both)
     *  - mod1 + mod4:   hSw -> 0.95
     * The adjustments scale proportionally if the caller changed the
     * base values (e.g. the stress workloads keep repSw = 0).
     */
    WorkloadParams adjustedFor(const ProtocolConfig &cfg) const;
};

namespace presets {

/** The Appendix A workload at a given sharing level. */
WorkloadParams appendixA(SharingLevel level);

/**
 * The Section 4.3 stress test: rep_p = rep_sw = amod_sw = 0,
 * csupply_sro = csupply_sw = 1, p_sw = 0.2, h_sw = 0.1
 * (maximal cache interference).
 */
WorkloadParams stressTest();

/**
 * The Section 4.4 high-sharing configuration ("99% sharing") used for
 * the Write-Once vs mods 2+3 bus-utilization comparison.
 */
WorkloadParams highSharing();

/**
 * Appendix A with amod_private raised to 0.95, matching most of the
 * experiments in [ArBa86] (the Section 4.4 reconciliation).
 */
WorkloadParams archibaldBaer(SharingLevel level);

} // namespace presets

} // namespace snoop

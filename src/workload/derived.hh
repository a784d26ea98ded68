#pragma once

/**
 * @file
 * The derived model inputs of Section 2.3: the quantities the MVA
 * solver of Section 3 consumes, computed from the basic workload
 * parameters per protocol configuration.
 *
 * The paper defers the derivations to [VeHo86], which is not
 * available; this is the documented reconstruction described in
 * DESIGN.md Section 3. The bus-timing constants were calibrated once
 * against the paper's published MVA numbers (Table 4.1) and reproduce
 * all 81 of them with RMS error 2.3%.
 */

#include "protocol/config.hh"
#include "workload/event_rates.hh"
#include "workload/params.hh"

namespace snoop {

/**
 * Bus and memory timing constants (in processor cycles).
 *
 * The block size is 4 words over 4 interleaved memory modules with a
 * fixed 3-cycle module latency (Section 2.1). The three block-transfer
 * costs distinguish the source of the data:
 *  - tReadMem:   a block read serviced by main memory;
 *  - tReadCache: a block transfer in which another cache is involved
 *                (cache-supplied or partially overlapped with a flush);
 *  - tWriteBack: a block write-back transaction.
 */
struct BusTiming
{
    double tReadMem = 9.0;   ///< memory-supplied block read transaction
    double tReadCache = 3.0; ///< cache-involved block transfer
    double tWriteBack = 2.0; ///< block write-back transaction
    double tWrite = 1.0;     ///< write-word / invalidate bus occupancy
    double tSupply = 1.0;    ///< cache service time (T_supply)
    double dMem = 3.0;       ///< memory module latency (d_mem)
    int numModules = 4;      ///< interleaved main-memory modules (m)

    /** An InvalidArgument error on a non-positive time or module
     * count. */
    [[nodiscard]] Expected<void> check() const;
};

/**
 * The model inputs listed in Section 2.3 plus the Appendix-B cache
 * interference quantities, all per memory reference.
 */
struct DerivedInputs
{
    double tau = 0;     ///< mean execution burst between references
    double pLocal = 0;  ///< P(request satisfied locally in the cache)
    double pBc = 0;     ///< P(request needs a broadcast write/invalidate)
    double pRr = 0;     ///< P(request needs a remote read / read-mod)
    double tRead = 0;   ///< mean bus access time of a remote read

    /** P(another cache flushes the block to memory | remote read). */
    double pCsupwbGivenRr = 0;
    /** P(requesting cache writes back its victim | remote read). */
    double pReqwbGivenRr = 0;

    /**
     * The bracketed memory-demand factor of eq. (12):
     * broadcast memory updates plus block write-backs per reference.
     * Already reflects mods 2/3 (which remove terms).
     */
    double memFactor = 0;

    /**
     * Appendix B: P(a bus request from another cache requires service
     * in this cache), split into the shared-miss part (pA) and the
     * broadcast part (pB); p = pA + pB.
     */
    double pA = 0;
    double pB = 0;
    /** Cache-supply fraction among shared misses (normalizer of B). */
    double csupFrac = 0;
    /** rep_p * p_private + rep_sw * p_sw (appears in p'). */
    double repTerm = 0;
    /** wb_csupply pass-through for t_interference. */
    double wbCsupply = 0;

    /** The protocol-adjusted basic parameters used. */
    WorkloadParams effective;
    /** The per-event probabilities used. */
    EventRates rates;
    /** The timing constants used. */
    BusTiming timing;
    /** The protocol configuration used. */
    ProtocolConfig protocol;

    /**
     * Compute every derived input for @p base under @p cfg.
     * @p base is validated and protocol-adjusted internally.
     */
    static DerivedInputs compute(const WorkloadParams &base,
                                 const ProtocolConfig &cfg,
                                 const BusTiming &timing = {});
};

} // namespace snoop

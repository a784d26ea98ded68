#pragma once

/**
 * @file
 * A small timed-Petri-net model of the Figure 2.1 multiprocessor -
 * processors alternating between execution and bus transactions over a
 * single shared bus - of the class used as the paper's detailed
 * baseline [VeHo86]. Its state space grows exponentially in the number
 * of processors, which is exactly the cost the MVA model avoids
 * (Section 3.2); the net is therefore practical only for small N and
 * is used to validate the MVA bus submodel at those sizes.
 */

#include <vector>

#include "petri/gtpn.hh"
#include "util/expected.hh"

namespace snoop {

/** Parameters of the bus-contention net (one token per processor). */
struct CoherenceNetParams
{
    unsigned numProcessors = 2;
    /** Execution + cache-supply time per memory request
     *  (tau + T_supply). */
    double execTime = 3.5;
    double pLocal = 0.86; ///< P(request satisfied locally)
    double pBc = 0.08;    ///< P(request broadcasts on the bus)
    double pRr = 0.06;    ///< P(request is a remote read)
    double tWrite = 1.0;  ///< bus occupancy of a broadcast
    double tRead = 9.0;   ///< bus occupancy of a remote read

    /** An InvalidArgument error on a non-positive processor count or
     * time, or probabilities that are negative or do not sum to 1. */
    [[nodiscard]] Expected<void> check() const;
};

/**
 * The constructed net plus the ids needed to read measures back.
 *
 * Bus access is modeled in two phases so the single bus token gives
 * true single-server semantics under race firing: a near-immediate
 * "seize" transition moves a waiting request and the bus token into a
 * per-processor in-service place, then the timed "serve" transition
 * holds for the transaction and returns the token. (A one-phase
 * encoding would leave the bus token in place while k requests race,
 * which models k parallel buses.)
 */
struct CoherenceNet
{
    Gtpn net;
    std::vector<PlaceId> thinking;      ///< per-processor ready place
    std::vector<PlaceId> waitBroadcast; ///< queued broadcast requests
    std::vector<PlaceId> waitRead;      ///< queued read requests
    PlaceId busFree = 0;                ///< single bus token
    std::vector<TransitionId> exec;     ///< per-processor execute
    std::vector<TransitionId> busBc;    ///< per-processor broadcast serve
    std::vector<TransitionId> busRr;    ///< per-processor read serve
};

/** Build the bus-contention net for @p params. */
CoherenceNet makeCoherenceNet(const CoherenceNetParams &params);

/**
 * Speedup in the paper's sense, N * (tau + T_supply) / R, recovered
 * from the net analysis as the summed utilization of the execute
 * transitions.
 */
double coherenceNetSpeedup(const CoherenceNet &net,
                           const GtpnAnalysis &analysis);

/**
 * Bus utilization: summed utilization of all bus transitions.
 */
double coherenceNetBusUtilization(const CoherenceNet &net,
                                  const GtpnAnalysis &analysis);

} // namespace snoop

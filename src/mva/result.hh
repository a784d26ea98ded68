#pragma once

/**
 * @file
 * The full set of performance measures produced by one MVA solve.
 */

#include <string>
#include <vector>

#include "workload/derived.hh"

namespace snoop {

/**
 * How a solve's single fixed-point attempt ended (MvaResult::attempts,
 * kept as a one-entry record).
 */
struct SolveAttempt
{
    double damping = 1.0;   ///< damping factor of the attempt
    int iterations = 0;     ///< iterations performed
    double residual = 0.0;  ///< final |R_k - R_{k-1}| residual
    bool converged = false; ///< the attempt reached the tolerance
    bool nonFinite = false; ///< it aborted on a NaN/inf iterate
};

/**
 * Performance measures for one (workload, protocol, N) configuration,
 * in the paper's notation.
 */
struct MvaResult
{
    unsigned numProcessors = 0; ///< N

    // headline measures (Section 4)
    double speedup = 0;         ///< N * (tau + T_supply) / R
    double processingPower = 0; ///< N * tau / R (Section 4.4)
    double responseTime = 0;    ///< R, mean cycles between requests

    // response-time components, eq. (1)-(4)
    double rLocal = 0;      ///< R_local
    double rBroadcast = 0;  ///< R_broadcast
    double rRemoteRead = 0; ///< R_RemoteRead

    // bus submodel, eq. (5)-(10)
    double wBus = 0;     ///< mean bus waiting time
    double qBus = 0;     ///< mean queue length seen on arrival
    double busUtil = 0;  ///< U_bus
    double pBusyBus = 0; ///< P(arriving request finds the bus busy)
    double tBus = 0;     ///< mean bus access time
    double tResBus = 0;  ///< mean residual life of the access in service

    // memory submodel, eq. (11)-(12)
    double wMem = 0;     ///< mean memory-module waiting time
    double memUtil = 0;  ///< U_mem, per-module utilization
    double pBusyMem = 0; ///< P(request finds its module busy)

    // cache-interference submodel, eq. (13) + Appendix B
    double nInterference = 0; ///< mean consecutive interfering snoops
    double tInterference = 0; ///< mean cycles per interfering snoop

    // solver diagnostics (Section 3.2)
    int iterations = 0;     ///< iterations performed
    bool converged = false; ///< tolerance reached within the limit
    double residual = 0;    ///< final |R_k - R_{k-1}| residual
    /** The solve aborted on a non-finite iterate. */
    bool nonFinite = false;
    /** The time/iteration budget cut the solve short (MvaOptions). */
    bool budgetExhausted = false;
    /** The solve started from a warm-start seed (MvaSeed). */
    bool warmStarted = false;
    /** The solve's one attempt, as a record (docs/CORRECTNESS.md). */
    std::vector<SolveAttempt> attempts;

    /** The derived inputs the solve consumed. */
    DerivedInputs inputs;

    /** One-line summary for logs and examples. */
    std::string summary() const;
};

} // namespace snoop

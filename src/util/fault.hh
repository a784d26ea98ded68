#pragma once

/**
 * @file
 * Deterministic fault injection for the solve pipeline.
 *
 * Robustness claims need proof: "a failing sweep cell becomes an
 * error cell" is only true if a test can make a cell fail on demand,
 * at any thread count, and observe the isolation. This harness names
 * the failure points ("sites") and arms them from the SNOOP_FAULT
 * environment variable or programmatically:
 *
 *     SNOOP_FAULT=<site>[:every=N][,<site2>[:every=M]...]
 *
 * Two kinds of site exist, chosen for determinism under the parallel
 * pool (docs/CORRECTNESS.md):
 *
 *  - Unkeyed sites (faultArmed) fire on *every* matching call -
 *    behavior is a pure function of the configuration, so serial and
 *    parallel runs inject identically. `every=` is ignored.
 *  - Keyed sites (faultFires) take a caller-supplied deterministic
 *    key (a sweep cell index, a replication index) and fire when
 *    key % N == 0. The key never depends on scheduling, so the set
 *    of injected cells is bit-identical at any SNOOP_JOBS.
 *
 * Armed sites (see docs/CORRECTNESS.md for the full reference):
 *
 *  | site                      | effect                                |
 *  |---------------------------|---------------------------------------|
 *  | mva.nan                   | NaN bus wait inside the MVA iteration |
 *  | mva.nonconverge           | the solve never converges (MVA,       |
 *  |                           | multiclass, hierarchical)             |
 *  | sweep.cell                | keyed: sweep cell throws              |
 *  | sweep.checkpoint          | keyed by checkpoint ordinal: the      |
 *  |                           | sweep aborts after that commit (the   |
 *  |                           | chaos harness's crash point)          |
 *  | sim.replication           | keyed: replication throws             |
 *  | validate.point            | keyed: comparison point throws        |
 *  | serve.request             | keyed by request id: serve cell fails |
 *  | io.commit                 | AtomicFile::commit or                 |
 *  |                           | AppendFile::append fails              |
 *  | io.fsync                  | AtomicFile fsync or AppendFile        |
 *  |                           | fdatasync step fails                  |
 *
 * The no-fault fast path is one relaxed atomic load; production runs
 * with SNOOP_FAULT unset pay nothing measurable.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "util/expected.hh"

namespace snoop {

/** One armed fault: a site name and a keyed-site sampling period. */
struct FaultSpec
{
    std::string site;   ///< exact site name, e.g. "sweep.cell"
    uint64_t every = 1; ///< keyed sites fire when key % every == 0
};

/**
 * Parse @p spec ("site[:every=N][,...]") and install it, replacing
 * any previous configuration; an empty string disarms everything.
 * Returns an InvalidArgument error on malformed syntax (nothing is
 * installed in that case).
 */
Expected<void> setFaultSpecs(const std::string &spec);

/** Disarm all fault sites. */
void clearFaultSpecs();

/**
 * Re-read SNOOP_FAULT from the environment (fatal() on a malformed
 * value - the variable is user input at the process boundary). Called
 * lazily on the first site query; tests call it after setenv().
 */
void reloadFaultSpecsFromEnv();

/** The currently armed specs (empty when disarmed). */
std::vector<FaultSpec> activeFaultSpecs();

/** True when @p site is armed (unkeyed sites: fire now). */
bool faultArmed(const char *site);

/**
 * True when @p site is armed and @p key falls on its sampling period
 * (key % every == 0). Keys must be schedule-independent - an index
 * into pre-sized work, never an arrival order.
 */
bool faultFires(const char *site, uint64_t key);

/**
 * Convenience: the error a site injects when it fires, carrying the
 * site name and key for the failure summary.
 */
SolveError injectedFault(const char *site, uint64_t key);

} // namespace snoop

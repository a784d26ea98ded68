#pragma once

/**
 * @file
 * Reads a solve's per-iteration R deltas back from the trace: the
 * `mva.iteration` instants an MVA lane replays when it finishes, at
 * TraceLevel::Iteration.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "observe/trace.hh"

namespace snoop {

/**
 * The `delta` field of every mva.iteration instant recorded under
 * trace task @p task, in iteration order (NaN where the field is
 * missing).
 */
inline std::vector<double>
iterationDeltas(const std::vector<TraceEvent> &events, uint64_t task)
{
    const std::string field = "\"delta\":";
    std::vector<std::pair<uint64_t, double>> keyed;
    for (const TraceEvent &e : events) {
        if (e.name != "mva.iteration" || e.task != task)
            continue;
        const size_t at = e.args.find(field);
        keyed.emplace_back(
            e.key, at == std::string::npos
                ? std::nan("")
                : std::strtod(e.args.c_str() + at + field.size(), nullptr));
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<double> deltas;
    for (const auto &[key, delta] : keyed)
        deltas.push_back(delta);
    return deltas;
}

} // namespace snoop

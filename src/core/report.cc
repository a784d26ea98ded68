#include "core/report.hh"

#include "core/analyzer.hh"
#include "protocol/catalog.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

namespace {

std::string
mdRow(const std::vector<std::string> &cells)
{
    return "| " + join(cells, " | ") + " |\n";
}

std::string
mdRule(size_t columns)
{
    std::vector<std::string> dashes(columns, "---");
    return mdRow(dashes);
}

} // namespace

Expected<std::string>
generateReport(const ReportSpec &spec)
{
    if (auto ok = spec.workload.check(); !ok)
        return std::move(ok).error().withContext("generateReport");
    if (spec.ns.empty()) {
        return makeError(SolveErrorCode::InvalidArgument, "generateReport",
                         "need at least one system size");
    }

    Analyzer analyzer({}, spec.timing);
    auto inputs =
        DerivedInputs::compute(spec.workload, spec.protocol, spec.timing);

    std::string md = "# " + spec.title + "\n\n";

    // Protocol identification.
    md += "## Protocol\n\n";
    md += "Configuration: **" + spec.protocol.name() + "**";
    auto names = namesForConfig(spec.protocol);
    if (!names.empty())
        md += " (known as **" + names.front() + "**)";
    md += "\n\n";
    md += strprintf("- mod 1 (exclusive-on-miss): %s\n",
                    spec.protocol.mod1 ? "yes" : "no");
    md += strprintf("- mod 2 (dirty cache supplies data): %s\n",
                    spec.protocol.mod2 ? "yes" : "no");
    md += strprintf("- mod 3 (invalidate instead of write-word): %s\n",
                    spec.protocol.mod3 ? "yes" : "no");
    md += strprintf("- mod 4 (broadcast updates): %s\n\n",
                    spec.protocol.mod4 ? "yes" : "no");

    // Workload.
    md += "## Workload\n\n";
    md += mdRow({"parameter", "value"});
    md += mdRule(2);
    const WorkloadParams &w = spec.workload;
    auto add = [&](const char *name, double v) {
        md += mdRow({name, formatCompact(v, 4)});
    };
    add("tau", w.tau);
    md += mdRow({"p_private / p_sro / p_sw",
                 formatCompact(w.pPrivate, 4) + " / " +
                     formatCompact(w.pSro, 4) + " / " +
                     formatCompact(w.pSw, 4)});
    add("h_private", w.hPrivate);
    add("h_sro", w.hSro);
    add("h_sw", w.hSw);
    add("r_private", w.rPrivate);
    add("r_sw", w.rSw);
    add("amod_private", w.amodPrivate);
    add("amod_sw", w.amodSw);
    add("csupply_sro", w.csupplySro);
    add("csupply_sw", w.csupplySw);
    add("wb_csupply", w.wbCsupply);
    add("rep_p", w.repP);
    add("rep_sw", w.repSw);
    md += "\n";

    // Derived inputs (Section 2.3 of the paper).
    md += "## Derived model inputs\n\n";
    md += mdRow({"input", "value"});
    md += mdRule(2);
    md += mdRow({"p_local", formatDouble(inputs.pLocal, 4)});
    md += mdRow({"p_bc", formatDouble(inputs.pBc, 4)});
    md += mdRow({"p_rr", formatDouble(inputs.pRr, 4)});
    md += mdRow({"t_read (cycles)", formatDouble(inputs.tRead, 3)});
    md += mdRow({"p_csupwb|rr", formatDouble(inputs.pCsupwbGivenRr, 4)});
    md += mdRow({"p_reqwb|rr", formatDouble(inputs.pReqwbGivenRr, 4)});
    md += "\n";

    // Speedup sweep.
    md += "## Predicted performance\n\n";
    md += mdRow({"N", "speedup", "R (cycles)", "U_bus", "w_bus",
                 "U_mem"});
    md += mdRule(6);
    for (unsigned n : spec.ns) {
        SNOOP_TRY(const MvaResult &r,
                  analyzer.tryAnalyze(spec.protocol, spec.workload, n));
        md += mdRow({strprintf("%u", n), formatDouble(r.speedup, 3),
                     formatDouble(r.responseTime, 2),
                     formatPercent(r.busUtil, 1),
                     formatDouble(r.wBus, 2),
                     formatPercent(r.memUtil, 1)});
    }
    md += "\n";

    // Optional validation against the detailed simulator.
    if (spec.validateUpTo > 0) {
        md += "## Validation against detailed simulation\n\n";
        ValidationConfig vc;
        vc.workload = spec.workload;
        vc.protocol = spec.protocol;
        vc.timing = spec.timing;
        vc.seed = spec.seed;
        vc.measuredRequests = spec.measuredRequests;
        vc.ns.clear();
        for (unsigned n : spec.ns) {
            if (n <= spec.validateUpTo)
                vc.ns.push_back(n);
        }
        auto points = validate(vc);
        md += mdRow({"N", "MVA", "sim", "sim 95% CI", "error"});
        md += mdRule(5);
        for (const auto &p : points) {
            md += mdRow({strprintf("%u", p.numProcessors),
                         formatDouble(p.mva.speedup, 3),
                         formatDouble(p.sim.speedup, 3),
                         strprintf("[%.3f, %.3f]",
                                   p.sim.speedupCi.lower(),
                                   p.sim.speedupCi.upper()),
                         formatPercent(p.speedupError(), 2)});
        }
        md += strprintf("\nMax |relative error|: %s\n",
                        formatPercent(maxAbsError(points), 2).c_str());
    }
    return md;
}

Expected<void>
writeReport(const ReportSpec &spec, const std::string &path)
{
    SNOOP_TRY(std::string md, generateReport(spec));
    AtomicFile file(path);
    if (!file.ok()) {
        return makeError(SolveErrorCode::IoError, "writeReport",
                         "cannot open a temporary for '%s'", path.c_str());
    }
    file.stream() << md;
    return file.commit();
}

} // namespace snoop

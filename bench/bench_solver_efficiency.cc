/**
 * Experiment E11 (Section 3.2): efficiency of the solution technique.
 * The paper's claims:
 *  - the equations converge within 15 iterations;
 *  - solution takes under a second of CPU time, independent of system
 *    size;
 *  - in contrast, detailed-model cost explodes with N (an hour of
 *    MicroVAX-II time at 10 processors for the GTPN).
 *
 * The report (stdout) prints iteration counts and the state-space
 * growth of the timed-Petri-net baseline - the scaling contrast the
 * paper is about. A timing table follows on stderr: the MVA solve,
 * the Petri-net build + solve, and one simulator point, each by N and
 * each the median of repeated runs (absolute times are
 * hardware-dependent; the shape is not).
 */

#include <algorithm>
#include <vector>

#include "common.hh"
#include "petri/coherence_net.hh"
#include "sim/prob_sim.hh"

namespace snoop::bench {
namespace {

/** The bus Petri net of an N-processor machine with inputs @p d. */
CoherenceNetParams
netParams(const DerivedInputs &d, unsigned n)
{
    CoherenceNetParams p;
    p.numProcessors = n;
    p.execTime = d.tau + d.timing.tSupply;
    p.pLocal = d.pLocal;
    p.pBc = d.pBc;
    p.pRr = d.pRr;
    p.tRead = d.tRead;
    return p;
}

/** Median wall time of @p runs calls of @p fn, in microseconds. */
double
medianUs(int runs, const std::function<void()> &fn)
{
    std::vector<double> us;
    for (int r = 0; r < runs; ++r)
        us.push_back(elapsedUs(fn));
    std::nth_element(us.begin(), us.begin() + runs / 2, us.end());
    return us[runs / 2];
}

/**
 * The cost of each model by N, on stderr so the report on stdout stays
 * byte-stable: the MVA solve, the Petri net's build + solve, and one
 * 100k-request simulator point. The whole table takes well under a
 * second.
 */
void
timings(const DerivedInputs &inputs)
{
    const int mva_runs = 201, net_runs = 5, sim_runs = 3;
    Table t({"model", "N", "median", "runs"});
    t.setAlign(0, Align::Left);
    MvaSolver solver;
    for (unsigned n : {1u, 10u, 100u, 1000u, 10000u}) {
        double us = medianUs(mva_runs, [&] {
            (void)solver.solve(inputs, n);
        });
        t.addRow({"MVA solve", strprintf("%u", n),
                  strprintf("%.2f us", us), strprintf("%d", mva_runs)});
    }
    for (unsigned n : {1u, 2u, 3u, 4u, 5u}) {
        double us = medianUs(net_runs, [&] {
            auto net = makeCoherenceNet(netParams(inputs, n));
            (void)net.net.analyze();
        });
        t.addRow({"Petri net build + solve", strprintf("%u", n),
                  strprintf("%.3f ms", us / 1000.0),
                  strprintf("%d", net_runs)});
    }
    SimConfig sc;
    sc.workload = presets::appendixA(SharingLevel::FivePercent);
    sc.protocol = ProtocolConfig::writeOnce();
    sc.measuredRequests = 100000;
    for (unsigned n : {2u, 10u}) {
        sc.numProcessors = n;
        double us = medianUs(sim_runs, [&] {
            ++sc.seed;
            (void)simulate(sc);
        });
        t.addRow({"simulator, 100k requests", strprintf("%u", n),
                  strprintf("%.1f ms", us / 1000.0),
                  strprintf("%d", sim_runs)});
    }
    std::fflush(stdout);
    std::fprintf(stderr, "\nsolve cost by N (wall clock, median of "
                         "the runs):\n%s",
                 t.render().c_str());
}

void
report()
{
    banner("Section 3.2: solver efficiency");

    // Iteration counts at the paper's engineering tolerance: plain
    // substitution (the paper's method, damping 1) next to the
    // library's default damping. Plain substitution runs under Accept,
    // so a solve that runs out its iteration cap is printed, marked
    // "*", instead of failing the report.
    MvaOptions plain_opts;
    plain_opts.tolerance = 1e-3;
    plain_opts.damping = 1.0;
    plain_opts.onNonConvergence = NonConvergencePolicy::Accept;
    MvaOptions default_opts;
    default_opts.tolerance = 1e-3;
    const MvaSolver plain(plain_opts), damped(default_opts);
    auto iterations = [](const MvaResult &r) {
        return strprintf("%d%s", r.iterations, r.converged ? "" : "*");
    };
    Table t({"N", "plain (damping 1)", "default (damping 0.5)",
             "converged"});
    auto inputs = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    for (unsigned n : {1u, 2u, 4u, 6u, 8u, 10u, 100u, 1000u}) {
        auto a = plain.solve(inputs, n);
        auto b = damped.solve(inputs, n);
        t.addRow({strprintf("%u", n), iterations(a), iterations(b),
                  a.converged && b.converged ? "yes" : "no"});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("*: no convergence within the %d-iteration cap.\n"
                "paper: \"Solution of the equations converged within "
                "15 iterations in all experiments reported in this "
                "paper\" (plain substitution; the paper's detailed-model "
                "comparisons stop at N=10). The default damping trades "
                "a few iterations at small N for convergence at every "
                "size (docs/MODEL.md).\n", plain_opts.maxIterations);

    // Detailed-model state-space explosion.
    banner("detailed-model cost: reachable markings of the bus net");
    Table g({"N", "reachable markings"});
    for (unsigned n : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
        auto net = makeCoherenceNet(netParams(inputs, n));
        g.addRow({strprintf("%u", n),
                  strprintf("%zu", net.net.countReachableStates())});
    }
    std::fputs(g.render().c_str(), stdout);
    std::printf("exponential in N (the embedded-chain solve is cubic "
                "in this count), vs the size-independent MVA fixed "
                "point - the \"hours to seconds\" contrast of the "
                "paper.\n");

    timings(inputs);
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)

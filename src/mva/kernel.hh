#pragma once

/**
 * @file
 * The shared per-iteration core of the customized MVA model: one
 * update step of eqs. (1)-(13) plus the admission checks. The scalar
 * lane driver (mva/lane.hh) wraps the step with the ladder, budgets
 * and disposition; the batch engine's fused SoA tick (mva/
 * batch_solver.cc) re-expresses the same step branch-free.
 *
 * Bit-identity contract: the lane driver calls mvaStep() and the
 * fused tick computes the same arithmetic sequence on identical
 * (constants, state), both applying the damped update in the same
 * expression order, so a batch lane is bit-identical to a scalar
 * solve of the same cell. Anything that could split the two - a
 * reordered sum, a fused multiply-add in one inlining context but not
 * the other - must not be introduced here (src/mva/CMakeLists.txt
 * compiles the module with -ffp-contract=off for the same reason).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "mva/result.hh"
#include "mva/solver.hh"
#include "util/expected.hh"
#include "util/fixed_point.hh"
#include "workload/derived.hh"

namespace snoop {

/**
 * Block-transfer cycles in the Appendix-B t_interference expression
 * (the literal 4.0 of the paper's appendix: one cache-block transfer).
 */
inline constexpr double kMvaBlockCycles = 4.0;

/**
 * Deterministic 2^x for the eq. (13) geometric-series term: the model
 * evaluates pPrime^qBus as 2^(qBus * log2(pPrime)) with the log
 * hoisted into the per-cell constants, and this function is the 2^x.
 *
 * It is built from pure arithmetic and compares (round-to-even split
 * via the 1.5*2^52 shifter, degree-12 Taylor polynomial in Estrin
 * form for 2^r on r in [-0.5, 0.5], exponent applied by integer bit
 * construction) so the SoA batch tick can vectorize it, unlike a libm
 * call - and because every operation is an IEEE-exact add/mul/select,
 * the scalar and vector compilations produce identical bits, which is
 * what the batch/scalar bit-identity contract rests on. Relative
 * error vs libm exp2 is < 1e-15 over the model's domain, far inside
 * the fixed point's tolerance.
 *
 * Domain: exact for x in (-1022, 1023]; x <= -1022 flushes to zero
 * (the model consumes 2^x inside 1 - 2^x, where anything below 2^-54
 * already rounds away); NaN propagates.
 */
inline double
mvaExp2(double x)
{
    double xs = (x == x) ? x : 0.0; // park NaN lanes on a safe value
    xs = std::clamp(xs, -1100.0, 1023.0);
    const double shifter = 0x1.8p52; // 1.5 * 2^52: ulp = 1, so adding
    double t = xs + shifter;         // it rounds xs to nearest-even
    double k = t - shifter;
    double r = xs - k; // r in [-0.5, 0.5]
    // 2^r = sum_i (r ln2)^i / i!, i = 0..12 (coefficients exact to
    // double precision; remainder < 2e-16 relative on the interval).
    const double c1 = 0x1.62e42fefa39efp-1, c2 = 0x1.ebfbdff82c58fp-3,
                 c3 = 0x1.c6b08d704a0cp-5, c4 = 0x1.3b2ab6fba4e77p-7,
                 c5 = 0x1.5d87fe78a6731p-10, c6 = 0x1.430912f86c787p-13,
                 c7 = 0x1.ffcbfc588b0c7p-17, c8 = 0x1.62c0223a5c824p-20,
                 c9 = 0x1.b5253d395e7d4p-24, c10 = 0x1.e4cf5158b8f42p-28,
                 c11 = 0x1.e8cac735b7b36p-32, c12 = 0x1.c3bd650fc75c5p-36;
    double r2 = r * r;
    double r4 = r2 * r2;
    double r8 = r4 * r4;
    double p0 = 1.0 + c1 * r + (c2 + c3 * r) * r2;
    double p1 = c4 + c5 * r + (c6 + c7 * r) * r2;
    double p2 = c8 + c9 * r + (c10 + c11 * r) * r2;
    double p = p0 + p1 * r4 + (p2 + c12 * r4) * r8;
    // (xs + shifter) carries round(xs) in its low mantissa bits:
    // bit_cast(t) == 0x4338000000000000 + k exactly, and building the
    // biased exponent (k + 1023) << 52 only keeps the low 12 bits of
    // the sum, so one integer add + shift forms 2^k without a
    // double->int conversion (which has no AVX2 vector form).
    unsigned long long tb = std::bit_cast<unsigned long long>(t);
    double scale = std::bit_cast<double>((tb + 1023ULL) << 52);
    double result = p * scale;
    result = (xs <= -1022.0) ? 0.0 : result;
    return (x == x) ? result : x;
}

/**
 * P(an arriving request finds the server busy), estimated from the
 * server utilization with the arriving customer removed - the
 * correction the paper applies in eq. (8) for the bus and repeats for
 * the memory modules.
 */
inline double
mvaPBusyFromUtilization(double util, unsigned n)
{
    if (n <= 1)
        return 0.0;
    // A utilization is a probability; iteration transients can push
    // the raw estimate past 1, which the fixed point then corrects.
    double u = std::clamp(util, 0.0, 1.0);
    double denom = 1.0 - u / static_cast<double>(n);
    if (denom <= 0.0)
        return 1.0;
    double p = (u - u / static_cast<double>(n)) / denom;
    return std::clamp(p, 0.0, 1.0);
}

/**
 * Everything in eqs. (1)-(13) that is fixed across iterations of one
 * cell: the derived workload probabilities and timings, plus the
 * Appendix-B quantities (p, p', t_interference) that depend only on
 * the workload and N. Every lane computes one at admission (hoisting
 * them out of the loop is value-neutral).
 */
struct MvaStepConstants
{
    unsigned n = 0;      ///< processor count (branch decisions)
    double numProc = 0;  ///< N as a double (arithmetic)
    double tau = 0;      ///< mean time between bus requests
    double pLocal = 0;   ///< P(local interference applies)
    double pBc = 0;      ///< P(broadcast per request)
    double pRr = 0;      ///< P(remote read per request)
    double tRead = 0;    ///< remote-read service time
    double memFactor = 0;///< memory-module demand factor
    double tWrite = 0;   ///< bus write (broadcast) service time
    double tSupply = 0;  ///< cache-supply adjustment in R
    double dMem = 0;     ///< memory-module service time
    double modules = 0;  ///< number of memory modules (double)
    double p = 0;        ///< Appendix B: P(block is shared-touched)
    double pPrime = 0;   ///< Appendix B: per-customer miss factor
    double log2PPrime = 0; ///< log2(pPrime) when 0 < pPrime < 1, else 0
    double tInt = 0;     ///< Appendix B: t_interference
};

/** Derive the per-cell constants for @p n processors. */
inline MvaStepConstants
mvaStepConstants(const DerivedInputs &d, unsigned n)
{
    MvaStepConstants c;
    c.n = n;
    c.numProc = static_cast<double>(n);
    c.tau = d.tau;
    c.pLocal = d.pLocal;
    c.pBc = d.pBc;
    c.pRr = d.pRr;
    c.tRead = d.tRead;
    c.memFactor = d.memFactor;
    c.tWrite = d.timing.tWrite;
    c.tSupply = d.timing.tSupply;
    c.dMem = d.timing.dMem;
    c.modules = static_cast<double>(d.timing.numModules);

    // Appendix B: p and the supplier-selection factor are fixed by
    // the workload; p' and t_interference follow directly.
    c.p = d.pA + d.pB;
    const double supplier_frac =
        n > 1 ? std::min(1.0, 2.0 / (c.numProc - 1.0)) : 0.0;
    c.pPrime = d.pB +
        d.pA * supplier_frac * d.csupFrac * (1.0 - d.repTerm);
    // Hoisted for eq. (13): pPrime^qBus = 2^(qBus * log2(pPrime)).
    // Only the interior branch (0 < pPrime < 1) consumes it; the
    // boundary branches leave it at the 0 placeholder.
    // snoop-lint: fp-ok
    c.log2PPrime = (c.pPrime > 0.0 && c.pPrime < 1.0)
        ? std::log2(c.pPrime)
        : 0.0;
    c.tInt = (c.p > 0.0)
        ? 1.0 + (d.pA / c.p) * supplier_frac * d.csupFrac *
            (kMvaBlockCycles + d.wbCsupply * kMvaBlockCycles)
        : 0.0;
    return c;
}

/**
 * The raw (undamped) outputs of one MVA update step: the new iterate
 * plus every submodel measure the result records per iteration.
 */
struct MvaStepValues
{
    double rNew = 0;     ///< next response time R, eq. (1)-(4)
    double wBusNew = 0;  ///< next (undamped) bus waiting time, eq. (5)
    double wMemNew = 0;  ///< next (undamped) memory waiting time
    double rLocal = 0;   ///< local-interference response component
    double rBc = 0;      ///< broadcast response component
    double rRr = 0;      ///< remote-read response component
    double qBus = 0;     ///< arrival queue length, eq. (6) (clamped)
    double uBus = 0;     ///< raw bus utilization, eq. (7)
    double pBusyBus = 0; ///< P(bus busy at arrival), eq. (8)
    double tBus = 0;     ///< mean bus access time, eq. (9)
    double tResBus = 0;  ///< mean bus residual life, eq. (10)
    double uMem = 0;     ///< raw memory utilization, eq. (11)
    double pBusyMem = 0; ///< P(module busy at arrival), eq. (12)
    double nInt = 0;     ///< interfering customers, eq. (13)
};

/**
 * One update step of the fixed point: from the current iterate
 * (wBus, wMem, rTotal) compute the next undamped iterate and all
 * per-iteration measures. Pure - no damping, injection, tracing, or
 * convergence logic - the lane driver (mva/lane.hh) wraps it with
 * all of that.
 */
inline MvaStepValues
mvaStep(const MvaStepConstants &c, double w_bus, double w_mem,
        double r_total)
{
    MvaStepValues o;

    // --- Mean queue length seen by an arrival, eq. (6) -----------
    o.rBc = c.pBc * (w_bus + w_mem + c.tWrite);
    o.rRr = c.pRr * (w_bus + c.tRead);
    double q_bus = (c.n > 1)
        ? (c.numProc - 1.0) * (o.rBc + o.rRr) / r_total
        : 0.0;
    // Closed system: with the arriving cache removed, at most N-1
    // requests can be queued. (Also bounds the iteration
    // transients that otherwise oscillate at saturation.)
    o.qBus = std::min(q_bus, c.numProc - 1.0);

    // --- Cache interference, eq. (13) ----------------------------
    o.nInt = 0.0;
    if (c.n > 1 && o.qBus > 0.0 && c.p > 0.0) {
        if (c.pPrime >= 1.0) {
            o.nInt = c.p * o.qBus;
        } else if (c.pPrime <= 0.0) {
            o.nInt = c.p;
        } else {
            // pPrime^qBus via the hoisted log2 and the deterministic
            // exp2 above: one transcendental per iteration becomes a
            // short polynomial, and - unlike std::pow - it has the
            // same bit pattern whether evaluated scalar or in the
            // batch solver's vectorized tick.
            o.nInt = c.p *
                (1.0 - mvaExp2(o.qBus * c.log2PPrime)) /
                (1.0 - c.pPrime);
        }
    }

    // --- Response time, eq. (1)-(4) ------------------------------
    o.rLocal = c.pLocal * o.nInt * c.tInt;
    o.rNew = c.tau + o.rLocal + o.rBc + o.rRr + c.tSupply;

    // --- Bus submodel, eq. (7)-(10) ------------------------------
    double bus_demand = c.pBc * (w_mem + c.tWrite) + c.pRr * c.tRead;
    o.uBus = c.numProc * bus_demand / o.rNew;
    o.pBusyBus = mvaPBusyFromUtilization(o.uBus, c.n);

    o.tBus = 0.0;
    o.tResBus = 0.0;
    double p_bus_total = c.pBc + c.pRr;
    if (p_bus_total > 0.0) {
        // eq. (9): access time weighted by request mix
        o.tBus = (c.pBc * (c.tWrite + w_mem) + c.pRr * c.tRead) /
            p_bus_total;
        // eq. (10): residual life weighted by time-in-service
        double weight_bc = c.pBc * (c.tWrite + w_mem);
        double weight_rr = c.pRr * c.tRead;
        double weight_total = weight_bc + weight_rr;
        if (weight_total > 0.0) {
            o.tResBus =
                weight_bc / weight_total * (c.tWrite + w_mem) / 2.0 +
                weight_rr / weight_total * c.tRead / 2.0;
        }
    }

    // eq. (5): residual life of the request in service plus a full
    // access time for every other queued request.
    o.wBusNew = (c.n > 1)
        ? std::max(0.0, o.qBus - o.pBusyBus) * o.tBus +
            o.pBusyBus * o.tResBus
        : 0.0;

    // --- Memory submodel, eq. (11)-(12) --------------------------
    o.uMem = c.numProc * (1.0 / c.modules) * c.memFactor * c.dMem /
        o.rNew;
    o.pBusyMem = mvaPBusyFromUtilization(o.uMem, c.n);
    o.wMemNew = o.pBusyMem * c.dMem / 2.0;

    return o;
}

/**
 * Admission check on MvaOptions; the message the MvaSolver
 * constructor throws and a batch lane reports as its result.
 */
inline std::optional<SolveError>
checkMvaOptions(const MvaOptions &opts)
{
    const char *detail = nullptr;
    if (opts.maxIterations < 1)
        detail = "maxIterations must be >= 1";
    else if (opts.tolerance <= 0.0)
        detail = "tolerance must be positive";
    else if (opts.damping <= 0.0 || opts.damping > 1.0)
        detail = "damping must be in (0, 1]";
    else if (!(opts.timeBudget >= 0.0))
        detail = "timeBudget must be >= 0";
    else if (opts.iterationBudget < 0)
        detail = "iterationBudget must be >= 0";
    if (detail != nullptr) {
        return makeError(SolveErrorCode::InvalidArgument, "MvaSolver",
                         "%s", detail);
    }
    return std::nullopt;
}

/**
 * Admission check on a warm-start seed: the waiting times it carries
 * must be finite and non-negative, or the solve would start from a
 * state the model cannot produce.
 */
inline std::optional<SolveError>
checkMvaSeed(const MvaSeed &seed)
{
    if (!std::isfinite(seed.wBus) || !std::isfinite(seed.wMem) ||
        !std::isfinite(seed.rTotal) || seed.wBus < 0.0 ||
        seed.wMem < 0.0 || seed.rTotal < 0.0) {
        return makeError(
            SolveErrorCode::InvalidArgument, "MvaSolver::solve",
            "warm-start seed (wBus=%g, wMem=%g, rTotal=%g) must be "
            "finite and non-negative", seed.wBus, seed.wMem,
            seed.rTotal);
    }
    return std::nullopt;
}

} // namespace snoop

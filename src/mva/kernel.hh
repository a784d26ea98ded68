#pragma once

/**
 * @file
 * The shared per-iteration core of the customized MVA model: one
 * update step of eqs. (1)-(13), its per-term helpers, the stop test,
 * and the admission checks. The scalar lane driver (mva/lane.hh)
 * wraps the step with budgets and disposition, the batch engine's
 * fused SoA tick (mva/batch_solver.cc) runs the same step over many
 * lanes at once, and the multiclass and hierarchical extensions build
 * their fixed points from the same helpers.
 *
 * Bit-identity contract: the lane driver and the fused tick call
 * mvaStep on identical (constants, state) and apply the damped update
 * in the same expression order, so a batch lane is bit-identical to a
 * scalar solve of the same cell. Anything that could split the two -
 * a reordered sum, a fused multiply-add in one inlining context but
 * not the other - must not be introduced here (src/mva/CMakeLists.txt
 * compiles the module with -ffp-contract=off for the same reason).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "mva/result.hh"
#include "mva/solver.hh"
#include "util/expected.hh"
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
 * The Appendix B constants of one workload at N processors: they
 * depend only on the workload and N, so every solve computes them
 * once, before its first iteration.
 */
struct MvaAppendixB
{
    double p = 0;          ///< P(block is shared-touched)
    double pPrime = 0;     ///< per-customer miss factor p'
    double log2PPrime = 0; ///< log2(p') when 0 < p' < 1, else 0
    double tInt = 0;       ///< t_interference
};

/** Appendix B for @p d at @p num_proc processors. */
inline MvaAppendixB
mvaAppendixB(const DerivedInputs &d, double num_proc)
{
    MvaAppendixB b;
    // p and the supplier-selection factor are fixed by the workload;
    // p' and t_interference follow directly.
    b.p = d.pA + d.pB;
    const double supplier_frac =
        num_proc > 1.0 ? std::min(1.0, 2.0 / (num_proc - 1.0)) : 0.0;
    b.pPrime = d.pB +
        d.pA * supplier_frac * d.csupFrac * (1.0 - d.repTerm);
    // Hoisted for eq. (13): p'^q = 2^(q * log2(p')). Only the
    // interior branch (0 < p' < 1) consumes it; the boundary branches
    // leave it at the 0 placeholder.
    // snoop-lint: fp-ok
    b.log2PPrime = (b.pPrime > 0.0 && b.pPrime < 1.0)
        ? std::log2(b.pPrime)
        : 0.0;
    b.tInt = (b.p > 0.0)
        ? 1.0 + (d.pA / b.p) * supplier_frac * d.csupFrac *
            (kMvaBlockCycles + d.wbCsupply * kMvaBlockCycles)
        : 0.0;
    return b;
}

/*
 * The per-term helpers below are written in select form: every branch
 * is computed and the condition picks one (a discarded branch may
 * form a NaN, which the select drops). That commits the value a
 * branch would, and it lets the batch engine's fused tick, which
 * inlines them through mvaStep, if-convert and vectorize.
 */

/**
 * Eq. (13): the mean number of consecutive interfering snoops an
 * arrival that finds @p q requests queued waits behind. p'^q is
 * formed as 2^(q * log2(p')) through mvaExp2, which has the same bits
 * scalar or vectorized.
 */
inline double
mvaInterference(const MvaAppendixB &b, double q)
{
    double n_int = b.p * (1.0 - mvaExp2(q * b.log2PPrime)) /
        (1.0 - b.pPrime);
    n_int = (b.pPrime >= 1.0) ? b.p * q : n_int;
    n_int = (b.pPrime <= 0.0) ? b.p : n_int;
    return (q > 0.0 && b.p > 0.0) ? n_int : 0.0;
}

/**
 * Eqs. (8) and (12): P(an arriving request finds the server busy),
 * estimated from the server utilization with the arriving customer
 * removed, for a server shared by @p customers. A utilization is a
 * probability; iteration transients can push the raw estimate past 1,
 * which the fixed point then corrects.
 */
inline double
mvaPBusy(double util, double customers)
{
    const double u = std::clamp(util, 0.0, 1.0);
    const double denom = 1.0 - u / customers;
    double p = std::clamp((u - u / customers) / denom, 0.0, 1.0);
    p = (denom <= 0.0) ? 1.0 : p;
    return (customers > 1.0) ? p : 0.0;
}

/**
 * Eq. (5): the wait of an arrival at a server shared by @p customers -
 * the residual life @p t_residual of the request in service (if the
 * server is busy) plus a full access time @p t_access for every other
 * of the @p q queued requests. A lone customer never waits.
 */
inline double
mvaResidualWait(double customers, double q, double p_busy,
                double t_access, double t_residual)
{
    const double w =
        std::max(0.0, q - p_busy) * t_access + p_busy * t_residual;
    return (customers > 1.0) ? w : 0.0;
}

/**
 * The relative step of one component of the iterate:
 * |x_k - x_{k-1}| / max(1, |x_k|).
 */
inline double
mvaRelStep(double next, double prev)
{
    return std::fabs(next - prev) / std::max(1.0, std::fabs(next));
}

/**
 * The stop test of every fixed point in the model: the largest
 * relative step @p s over the whole iterate is below @p tol. A
 * non-finite step never stops, so the drivers check for it first.
 */
inline bool
mvaConverged(double s, double tol)
{
    return s < tol;
}

/**
 * Everything in eqs. (1)-(13) that is fixed across iterations of one
 * cell: the derived workload probabilities and timings, plus the
 * Appendix B quantities. Every lane computes one at admission
 * (hoisting them out of the loop is value-neutral).
 */
struct MvaStepConstants
{
    double numProc = 0;    ///< N
    double tau = 0;        ///< mean time between bus requests
    double pLocal = 0;     ///< P(local interference applies)
    double pBc = 0;        ///< P(broadcast per request)
    double pRr = 0;        ///< P(remote read per request)
    double tRead = 0;      ///< remote-read service time
    double memFactor = 0;  ///< memory-module demand factor
    double tWrite = 0;     ///< bus write (broadcast) service time
    double tSupply = 0;    ///< cache-supply adjustment in R
    double dMem = 0;       ///< memory-module service time
    double invModules = 0; ///< 1 / number of memory modules
    MvaAppendixB appendixB;
};

/** Derive the per-cell constants for @p n processors. */
inline MvaStepConstants
mvaStepConstants(const DerivedInputs &d, unsigned n)
{
    MvaStepConstants c;
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
    c.invModules = 1.0 / static_cast<double>(d.timing.numModules);
    c.appendixB = mvaAppendixB(d, c.numProc);
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
 * convergence logic - and branch-free, so the scalar lane
 * (mva/lane.hh) and the batch engine's fused tick both run this one
 * copy of the equations.
 */
inline MvaStepValues
mvaStep(const MvaStepConstants &c, double w_bus, double w_mem,
        double r_total)
{
    MvaStepValues o;

    // --- Mean queue length seen by an arrival, eq. (6) -----------
    o.rBc = c.pBc * (w_bus + w_mem + c.tWrite);
    o.rRr = c.pRr * (w_bus + c.tRead);
    const double q_bus = (c.numProc - 1.0) * (o.rBc + o.rRr) / r_total;
    // Closed system: with the arriving cache removed, at most N-1
    // requests can be queued. (Also bounds the iteration
    // transients that otherwise oscillate at saturation.)
    o.qBus = std::min((c.numProc > 1.0) ? q_bus : 0.0, c.numProc - 1.0);

    // --- Cache interference, eq. (13) and response time, (1)-(4) --
    o.nInt = mvaInterference(c.appendixB, o.qBus);
    o.rLocal = c.pLocal * o.nInt * c.appendixB.tInt;
    o.rNew = c.tau + o.rLocal + o.rBc + o.rRr + c.tSupply;

    // --- Bus submodel, eq. (7)-(10) ------------------------------
    const double bus_demand =
        c.pBc * (w_mem + c.tWrite) + c.pRr * c.tRead;
    o.uBus = c.numProc * bus_demand / o.rNew;
    o.pBusyBus = mvaPBusy(o.uBus, c.numProc);
    // eq. (9): access time weighted by request mix; eq. (10):
    // residual life weighted by time-in-service
    const double t_bc = c.tWrite + w_mem;
    const double weight_bc = c.pBc * t_bc;
    const double weight_rr = c.pRr * c.tRead;
    const double p_bus_total = c.pBc + c.pRr;
    const double weight_total = weight_bc + weight_rr;
    const double t_bus = weight_total / p_bus_total;
    const double t_res = weight_bc / weight_total * t_bc / 2.0 +
        weight_rr / weight_total * c.tRead / 2.0;
    o.tBus = (p_bus_total > 0.0) ? t_bus : 0.0;
    o.tResBus = (p_bus_total > 0.0 && weight_total > 0.0) ? t_res : 0.0;
    o.wBusNew = mvaResidualWait(c.numProc, o.qBus, o.pBusyBus, o.tBus,
                                o.tResBus);

    // --- Memory submodel, eq. (11)-(12) --------------------------
    o.uMem = c.numProc * c.invModules * c.memFactor * c.dMem / o.rNew;
    o.pBusyMem = mvaPBusy(o.uMem, c.numProc);
    o.wMemNew = o.pBusyMem * c.dMem / 2.0;

    return o;
}

/**
 * The size of one damped step of the flat model: the largest
 * mvaRelStep over the whole iterate (wBus, wMem, R). Only meaningful
 * on a finite iterate, which both drivers check before they act on it.
 */
inline double
mvaStepSize(double w_bus_next, double w_bus, double w_mem_next,
            double w_mem, double r_next, double r)
{
    return std::max(mvaRelStep(r_next, r),
                    std::max(mvaRelStep(w_bus_next, w_bus),
                             mvaRelStep(w_mem_next, w_mem)));
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

#include "sim/prob_sim.hh"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "protocol/fsm.hh"
#include "random/rng.hh"
#include "sim/bus.hh"
#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "stats/student_t.hh"
#include "util/contracts.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/strutil.hh"
#include "workload/generator.hh"

namespace snoop {

Expected<void>
SimConfig::check() const
{
    auto invalid = [](const std::string &what) {
        return makeError(SolveErrorCode::InvalidArgument, "SimConfig",
                         "%s", what.c_str());
    };
    if (numProcessors == 0)
        return invalid("need at least one processor");
    if (auto ok = workload.check(); !ok)
        return ok;
    if (auto ok = timing.check(); !ok)
        return ok;
    if (measuredRequests == 0)
        return invalid("measuredRequests must be positive");
    if (batchSize == 0)
        return invalid("batchSize must be positive");
    if (collectHistogram && (histogramBins == 0 || histogramMax <= 0.0))
        return invalid("histogram needs positive bins and range");
    if (!tauMultipliers.empty()) {
        if (tauMultipliers.size() != numProcessors)
            return invalid(strprintf("%zu tauMultipliers for %u processors",
                                     tauMultipliers.size(), numProcessors));
        for (double m : tauMultipliers) {
            if (m <= 0.0)
                return invalid("tau multipliers must be positive");
        }
    }
    return {};
}

std::string
SimResult::summary() const
{
    return strprintf(
        "N=%u speedup=%.3f (+/-%.3f) R=%.3f U_bus=%.3f U_mem=%.3f "
        "w_bus=%.3f (%llu requests)",
        numProcessors, speedup, speedupCi.halfWidth, responseTime.mean,
        busUtilization, memUtilization, meanBusWait,
        static_cast<unsigned long long>(requestsMeasured));
}

namespace {

/** How a sampled reference is handled (the Section 2.3 split). */
enum class RequestKind { Local, Broadcast, Miss };

/**
 * The full simulator state. The simulation is event-driven: each
 * processor cycles through execute -> issue -> (cache | bus) ->
 * complete, with the bus and memory modules as shared resources and
 * snoop duties imposed on peer caches.
 */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &cfg)
        : cfg_(cfg), params_(cfg.workload.adjustedFor(cfg.protocol)),
          bus_(events_, cfg.busDiscipline, cfg.seed ^ 0xb5a5a5a5ULL),
          memory_(cfg.timing.numModules, cfg.timing.dMem),
          rng_(cfg.seed), responseTimes_(cfg.batchSize)
    {
        if (cfg_.collectHistogram) {
            histogram_.emplace(0.0, cfg_.histogramMax,
                               cfg_.histogramBins);
        }
        // P(a specific peer cache holds a shared block), chosen so that
        // P(at least one of the N-1 peers holds it) equals csupply.
        double peers = cfg_.numProcessors > 1
            ? static_cast<double>(cfg_.numProcessors - 1) : 1.0;
        holdProbSro_ = 1.0 - std::pow(1.0 - params_.csupplySro,
                                      1.0 / peers);
        holdProbSw_ = 1.0 - std::pow(1.0 - params_.csupplySw, 1.0 / peers);

        procs_.reserve(cfg_.numProcessors);
        for (unsigned i = 0; i < cfg_.numProcessors; ++i) {
            procs_.push_back(std::make_unique<Proc>(
                ReferenceSampler(params_, rng_.fork()), rng_.fork()));
            procs_.back()->tau = cfg_.tauMultipliers.empty()
                ? params_.tau
                : params_.tau * cfg_.tauMultipliers[i];
        }
    }

    SimResult run();

  private:
    struct Proc
    {
        Proc(ReferenceSampler s, Rng r)
            : sampler(std::move(s)), rng(std::move(r))
        {
        }
        ReferenceSampler sampler;
        Rng rng;
        double tau = 0.0; ///< this processor's mean execution burst
        double cycleStart = 0.0;
        /** the cache is unavailable to the processor until this time
         *  due to snoop duties (dual-directory rule) */
        double snoopBusyUntil = 0.0;
        Accumulator cycleTimes; ///< per-processor measured cycles
    };

    void scheduleExecution(unsigned p);
    void issueRequest(unsigned p);
    void attemptLocal(unsigned p, double issue_time);
    void serveBroadcast(unsigned p, const SampledReference &ref,
                        double grant_time);
    void serveMiss(unsigned p, const SampledReference &ref,
                   double grant_time);
    void completeRequest(unsigned p);
    RequestKind classify(Proc &proc, const SampledReference &ref) const;
    /** A bus occupancy: the mean itself, or an exponential draw. */
    double busTime(Proc &proc, double mean) const;
    void imposeSnoopDuties(unsigned requester, BusOp op,
                           const SampledReference &ref, double start,
                           double end);
    bool warm() const { return completed_ >= cfg_.warmupRequests; }

    SimConfig cfg_;
    WorkloadParams params_;
    EventQueue events_;
    Bus bus_;
    MemoryModules memory_;
    Rng rng_;
    std::vector<std::unique_ptr<Proc>> procs_;

    double holdProbSro_ = 0.0;
    double holdProbSw_ = 0.0;

    uint64_t completed_ = 0;
    uint64_t measured_ = 0;
    bool statsReset_ = false;
    double windowStart_ = 0.0;
    BatchMeans responseTimes_;
    Accumulator snoopDelays_;
    std::optional<Histogram> histogram_;
    bool done_ = false;
};

double
Simulator::busTime(Proc &proc, double mean) const
{
    if (!cfg_.exponentialBusTimes || mean <= 0.0)
        return mean;
    return proc.rng.exponential(mean);
}

RequestKind
Simulator::classify(Proc &proc, const SampledReference &ref) const
{
    if (!ref.hit)
        return RequestKind::Miss;
    if (!ref.isWrite)
        return RequestKind::Local;

    // Write hit: does the consistency protocol need the bus?
    if (cfg_.protocol.mod4 && ref.cls == StreamClass::SharedWritable) {
        // Broadcast-update: every write to a non-exclusive block
        // broadcasts; with mod1 a (1 - csupply_sw) fraction of blocks
        // was loaded exclusive and writes locally.
        if (cfg_.protocol.mod1 &&
            proc.rng.bernoulli(1.0 - params_.csupplySw)) {
            return RequestKind::Local;
        }
        return RequestKind::Broadcast;
    }
    if (ref.alreadyModified)
        return RequestKind::Local;
    if (ref.cls == StreamClass::Private && cfg_.protocol.mod1) {
        // Private blocks loaded exclusive: first write is local.
        return RequestKind::Local;
    }
    if (ref.cls == StreamClass::SharedReadOnly)
        return RequestKind::Local; // reads only; defensive
    return RequestKind::Broadcast;
}

void
Simulator::scheduleExecution(unsigned p)
{
    Proc &proc = *procs_[p];
    double burst = proc.tau > 0.0 ? proc.rng.exponential(proc.tau) : 0.0;
    events_.scheduleAfter(burst, [this, p] { issueRequest(p); });
}

void
Simulator::issueRequest(unsigned p)
{
    Proc &proc = *procs_[p];
    SampledReference ref = proc.sampler.next();
    switch (classify(proc, ref)) {
      case RequestKind::Local:
        attemptLocal(p, events_.now());
        return;
      case RequestKind::Broadcast:
        bus_.request([this, p, ref](double grant) {
            serveBroadcast(p, ref, grant);
        });
        return;
      case RequestKind::Miss:
        bus_.request([this, p, ref](double grant) {
            serveMiss(p, ref, grant);
        });
        return;
    }
}

void
Simulator::attemptLocal(unsigned p, double issue_time)
{
    Proc &proc = *procs_[p];
    double busy_until = proc.snoopBusyUntil;
    if (busy_until > events_.now()) {
        // Bus requests have priority in the cache: retry once the
        // pending snoop duties drain (more duties may accumulate
        // meanwhile; the retry loop handles consecutive interference,
        // the n_interference phenomenon of eq. (13)).
        events_.schedule(busy_until,
                         [this, p, issue_time] {
                             attemptLocal(p, issue_time);
                         });
        return;
    }
    if (warm())
        snoopDelays_.add(events_.now() - issue_time);
    events_.scheduleAfter(cfg_.timing.tSupply,
                          [this, p] { completeRequest(p); });
}

void
Simulator::serveBroadcast(unsigned p, const SampledReference &ref,
                          double grant_time)
{
    BusOp op = cfg_.protocol.mod3 && !cfg_.protocol.mod4
        ? BusOp::Invalidate : BusOp::WriteWord;

    double start = grant_time;
    if (cfg_.protocol.broadcastUpdatesMemory()) {
        // The word write holds the bus until its memory module is free
        // (eq. (7) charges w_mem + T_write to the bus).
        start = memory_.occupyRandom(grant_time, procs_[p]->rng);
    }
    double end = start + busTime(*procs_[p], cfg_.timing.tWrite);

    imposeSnoopDuties(p, op, ref, start, end);
    bus_.releaseAt(end);
    events_.schedule(end + cfg_.timing.tSupply,
                     [this, p] { completeRequest(p); });
}

void
Simulator::serveMiss(unsigned p, const SampledReference &ref,
                     double grant_time)
{
    Proc &proc = *procs_[p];
    const BusTiming &t = cfg_.timing;
    BusOp op = ref.isWrite ? BusOp::ReadMod : BusOp::Read;

    // Transfer time by supply source (same model as DerivedInputs).
    double duration;
    int module_writes = 0;
    if (ref.cls != StreamClass::Private && ref.copyElsewhere) {
        if (ref.supplierDirty && !cfg_.protocol.mod2) {
            // supplier flushes to memory, then memory supplies
            duration = t.tWriteBack + t.tReadMem;
            ++module_writes;
        } else {
            duration = t.tReadCache;
        }
    } else {
        duration = t.tReadMem;
    }
    if (ref.victimWriteback) {
        duration += t.tWriteBack;
        ++module_writes;
    }
    duration = busTime(proc, duration);

    // Block write-backs occupy memory modules (they are what eq. (12)
    // charges); reads themselves are pipelined within the transfer.
    for (int w = 0; w < module_writes; ++w)
        memory_.occupyRandom(grant_time, proc.rng);

    double end = grant_time + duration;
    imposeSnoopDuties(p, op, ref, grant_time, end);
    bus_.releaseAt(end);
    events_.schedule(end + t.tSupply, [this, p] { completeRequest(p); });
}

void
Simulator::imposeSnoopDuties(unsigned requester, BusOp op,
                             const SampledReference &ref, double start,
                             double end)
{
    if (cfg_.numProcessors <= 1)
        return;
    if (ref.cls == StreamClass::Private)
        return; // private blocks are never resident in peer caches

    double hold_prob = ref.cls == StreamClass::SharedReadOnly
        ? holdProbSro_ : holdProbSw_;

    // The sampled copyElsewhere commits to at least one holder: pick
    // the supplier uniformly among peers; remaining peers hold
    // independently.
    int supplier = -1;
    if (!ref.hit && ref.copyElsewhere) {
        uint64_t pick =
            procs_[requester]->rng.uniformInt(cfg_.numProcessors - 1);
        supplier = static_cast<int>(pick >= requester ? pick + 1 : pick);
    }

    for (unsigned c = 0; c < cfg_.numProcessors; ++c) {
        if (c == requester)
            continue;
        bool holds = (static_cast<int>(c) == supplier) ||
            procs_[requester]->rng.bernoulli(hold_prob);
        if (!holds)
            continue;
        LineState state = (static_cast<int>(c) == supplier &&
                           ref.supplierDirty)
            ? LineState::ExclusiveDirty : LineState::SharedClean;
        SnoopAction action = onSnoop(state, op, cfg_.protocol);
        if (!action.mustRespond)
            continue;
        double duty_end = action.fullDuration
            ? end : start + 1.0; // short duties take one cycle
        procs_[c]->snoopBusyUntil =
            std::max(procs_[c]->snoopBusyUntil, duty_end);
    }
}

void
Simulator::completeRequest(unsigned p)
{
    Proc &proc = *procs_[p];
    double now = events_.now();
    if (warm()) {
        if (!statsReset_) {
            statsReset_ = true;
            windowStart_ = now;
            bus_.resetStats(now);
            memory_.resetStats(now);
        } else {
            responseTimes_.add(now - proc.cycleStart);
            proc.cycleTimes.add(now - proc.cycleStart);
            if (histogram_)
                histogram_->add(now - proc.cycleStart);
            ++measured_;
            if (measured_ >= cfg_.measuredRequests)
                done_ = true;
        }
    }
    ++completed_;
    proc.cycleStart = now;
    scheduleExecution(p);
}

SimResult
Simulator::run()
{
    for (unsigned p = 0; p < cfg_.numProcessors; ++p) {
        procs_[p]->cycleStart = 0.0;
        scheduleExecution(p);
    }
    events_.runUntil([this] { return done_; });
    if (!done_)
        panic("Simulator: event queue drained before measurement ended");

    SimResult r;
    r.numProcessors = cfg_.numProcessors;
    r.responseTime = responseTimes_.interval(0.95);
    double work = static_cast<double>(cfg_.numProcessors) *
        (params_.tau + cfg_.timing.tSupply);
    r.speedup = work / r.responseTime.mean;
    r.speedupCi.mean = r.speedup;
    r.speedupCi.batches = r.responseTime.batches;
    if (r.responseTime.mean > 0.0 &&
        std::isfinite(r.responseTime.halfWidth)) {
        // first-order delta method on 1/R
        r.speedupCi.halfWidth = r.speedup * r.responseTime.halfWidth /
            r.responseTime.mean;
    } else {
        r.speedupCi.halfWidth = r.responseTime.halfWidth;
    }
    double now = events_.now();
    r.busUtilization = bus_.utilization(now);
    r.memUtilization = memory_.utilization(now);
    r.meanBusWait = bus_.waitStats().mean();
    r.meanSnoopDelay = snoopDelays_.mean();
    r.requestsMeasured = measured_;
    r.simulatedCycles = now - windowStart_;
    r.perProcessorResponse.reserve(procs_.size());
    for (const auto &proc : procs_)
        r.perProcessorResponse.push_back(proc->cycleTimes.mean());
    r.responseHistogram = histogram_;
    return r;
}

} // namespace

SimResult
simulate(const SimConfig &config)
{
    SNOOP_REQUIRE_OK(config.check());
    Simulator sim(config);
    SimResult r = sim.run();

    // The simulator is the accuracy reference the MVA model is judged
    // against (Section 4), so its own outputs get the same validity
    // contract as the analytic solvers.
    NumericGuard guard("simulate",
                       strprintf("N=%u seed=%llu", r.numProcessors,
                                 static_cast<unsigned long long>(
                                     config.seed)));
    guard.positive("responseTime.mean", r.responseTime.mean)
        .positive("speedup", r.speedup)
        .nonNegative("speedupCi.halfWidth", r.speedupCi.halfWidth)
        .utilization("busUtilization", r.busUtilization)
        .utilization("memUtilization", r.memUtilization)
        .nonNegative("meanBusWait", r.meanBusWait)
        .nonNegative("meanSnoopDelay", r.meanSnoopDelay)
        .positive("simulatedCycles", r.simulatedCycles)
        .finiteVector("perProcessorResponse", r.perProcessorResponse);
    return r;
}

size_t
ReplicationSet::failureCount() const
{
    size_t count = 0;
    for (const auto &e : errors)
        count += e.has_value() ? 1 : 0;
    return count;
}

std::string
ReplicationSet::summary() const
{
    std::string s = strprintf(
        "%zu replications: speedup=%.3f (+/-%.3f) R=%.3f (+/-%.3f)",
        runs.size(), speedup.mean, speedup.halfWidth, responseTime.mean,
        responseTime.halfWidth);
    if (size_t failed = failureCount(); failed > 0)
        s += strprintf(" [%zu failed]", failed);
    return s;
}

namespace {

/** Student-t interval over one scalar across replications. */
ConfidenceInterval
acrossReplications(const Accumulator &acc)
{
    ConfidenceInterval ci;
    ci.batches = static_cast<unsigned>(acc.count());
    ci.mean = acc.mean();
    ci.halfWidth = acc.count() >= 2
        ? studentTCritical(static_cast<unsigned>(acc.count()) - 1, 0.95) *
            acc.stdError()
        : std::numeric_limits<double>::infinity();
    return ci;
}

} // namespace

ReplicationSet
simulateReplications(const SimConfig &base, unsigned replications)
{
    SNOOP_REQUIRE(replications > 0,
                  "simulateReplications: need at least one replication");
    SNOOP_REQUIRE_OK(base.check());

    // Derive every replication's seed up front from one SplitMix64
    // sequence: substreams are fixed by (base.seed, index) alone, so
    // serial and parallel execution produce bit-identical statistics.
    std::vector<uint64_t> seeds(replications);
    uint64_t state = base.seed;
    for (auto &s : seeds)
        s = splitMix64(state);

    ReplicationSet set;
    set.runs.resize(replications); // pre-sized slots, one per worker
    set.errors.resize(replications);
    ScopedMetricTimer batch_timer("sim.replications_us");
    TraceSpan batch_span(TraceLevel::Phase, "sim.replication_batch",
                         replications);
    parallelFor(replications, [&](size_t i) {
        // The replication index keys the task scope, same as the
        // fault site: the trace is bit-identical at any SNOOP_JOBS.
        TraceTaskScope task(i + 1);
        TraceSpan rep_span(TraceLevel::Phase, "sim.replication", i);
        metricAdd("sim.replications");
        // Isolate failures per replication: an exception escaping
        // into parallelFor would cancel the remaining replications.
        try {
            if (faultFires("sim.replication", i)) {
                throw SolveException(
                    injectedFault("sim.replication", i));
            }
            SimConfig cfg = base;
            cfg.seed = seeds[i];
            set.runs[i] = simulate(cfg);
        } catch (const SolveException &e) {
            set.errors[i] = e.error();
        } catch (const std::exception &e) {
            set.errors[i] = makeError(
                SolveErrorCode::Internal, "simulateReplications",
                "unexpected exception in replication %zu: %s", i,
                e.what());
        }
    });

    // Statistics run over the successful replications only; the
    // summary reports how many were excluded.
    Accumulator speedups, responses;
    for (size_t i = 0; i < set.runs.size(); ++i) {
        if (set.errors[i])
            continue;
        speedups.add(set.runs[i].speedup);
        responses.add(set.runs[i].responseTime.mean);
    }
    set.speedup = acrossReplications(speedups);
    set.responseTime = acrossReplications(responses);
    if (size_t failed = set.failureCount(); failed > 0) {
        warn("simulateReplications: %zu of %u replications failed",
             failed, replications);
    }
    return set;
}

} // namespace snoop

#include "sim/trace_sim.hh"

#include <memory>
#include <vector>

#include "protocol/fsm.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "util/contracts.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

void
TraceSimConfig::validate() const
{
    if (numProcessors == 0)
        fatal("TraceSimConfig: need at least one processor");
    SNOOP_REQUIRE_OK(workload.check());
    SNOOP_REQUIRE_OK(timing.check());
    if (cacheSets == 0 || cacheWays == 0)
        fatal("TraceSimConfig: cache geometry must be non-degenerate");
    if (measuredRequests == 0)
        fatal("TraceSimConfig: measuredRequests must be positive");
    if (batchSize == 0)
        fatal("TraceSimConfig: batchSize must be positive");
}

std::string
TraceSimResult::summary() const
{
    return strprintf(
        "N=%u speedup=%.3f R=%.3f U_bus=%.3f h_priv=%.3f h_sw=%.3f "
        "csupply=%.3f (%llu requests)",
        numProcessors, speedup, responseTime.mean, busUtilization,
        measured.hitPrivate, measured.hitSw, measured.csupplyShared,
        static_cast<unsigned long long>(requestsMeasured));
}

namespace {

/** Counters for one emergent-workload ratio. */
struct Ratio
{
    uint64_t hits = 0;
    uint64_t total = 0;

    void
    add(bool hit)
    {
        hits += hit;
        ++total;
    }
    double
    fraction() const
    {
        return total ? static_cast<double>(hits) /
                static_cast<double>(total) : 0.0;
    }
};

class TraceSimulator
{
  public:
    explicit TraceSimulator(const TraceSimConfig &cfg)
        : cfg_(cfg), bus_(events_),
          memory_(cfg.timing.numModules, cfg.timing.dMem),
          rng_(cfg.seed), responseTimes_(cfg.batchSize)
    {
        procs_.reserve(cfg_.numProcessors);
        for (unsigned i = 0; i < cfg_.numProcessors; ++i) {
            procs_.push_back(std::make_unique<Proc>(
                SyntheticTraceGenerator(cfg_.workload, cfg_.trace, i,
                                        cfg_.numProcessors, rng_.fork()),
                rng_.fork(),
                CacheArray(cfg_.cacheSets, cfg_.cacheWays)));
        }
    }

    TraceSimResult run();

  private:
    struct Proc
    {
        Proc(SyntheticTraceGenerator g, Rng r, CacheArray c)
            : gen(std::move(g)), rng(std::move(r)), cache(std::move(c))
        {
        }
        SyntheticTraceGenerator gen;
        Rng rng;
        CacheArray cache;
        double cycleStart = 0.0;
        double snoopBusyUntil = 0.0;
    };

    void scheduleExecution(unsigned p);
    void issueRequest(unsigned p);
    void attemptLocal(unsigned p, double issue_time);
    void serveBus(unsigned p, TraceReference ref, BusOp op,
                  double grant_time);
    void completeRequest(unsigned p);
    void recordReference(const TraceReference &ref, bool hit,
                         LineState state);
    bool warm() const { return completed_ >= cfg_.warmupRequests; }

    TraceSimConfig cfg_;
    EventQueue events_;
    Bus bus_;
    MemoryModules memory_;
    Rng rng_;
    std::vector<std::unique_ptr<Proc>> procs_;

    uint64_t completed_ = 0;
    uint64_t measured_ = 0;
    bool statsReset_ = false;
    double windowStart_ = 0.0;
    bool done_ = false;
    BatchMeans responseTimes_;

    Ratio hitPrivate_, hitSro_, hitSw_;
    Ratio amodPrivate_, amodSw_;
    Ratio csupplyShared_;
    Ratio victimDirty_;
    BusOpMix busOps_;
};

void
TraceSimulator::scheduleExecution(unsigned p)
{
    double tau = cfg_.workload.tau;
    double burst = tau > 0.0 ? procs_[p]->rng.exponential(tau) : 0.0;
    events_.scheduleAfter(burst, [this, p] { issueRequest(p); });
}

void
TraceSimulator::recordReference(const TraceReference &ref, bool hit,
                                LineState state)
{
    if (!warm())
        return;
    switch (ref.cls) {
      case StreamClass::Private:
        hitPrivate_.add(hit);
        if (hit && ref.isWrite)
            amodPrivate_.add(isDirty(state));
        break;
      case StreamClass::SharedReadOnly:
        hitSro_.add(hit);
        break;
      case StreamClass::SharedWritable:
        hitSw_.add(hit);
        if (hit && ref.isWrite)
            amodSw_.add(isDirty(state));
        break;
    }
}

void
TraceSimulator::issueRequest(unsigned p)
{
    Proc &proc = *procs_[p];
    TraceReference ref = proc.gen.next();
    LineState state = proc.cache.lookup(ref.blockId);
    bool hit = state != LineState::Invalid;
    recordReference(ref, hit, state);

    ProcAction action = ref.isWrite
        ? onProcessorWrite(state, cfg_.protocol)
        : onProcessorRead(state, cfg_.protocol);

    if (action.busOp == BusOp::None) {
        proc.cache.setState(ref.blockId, action.next);
        proc.cache.touch(ref.blockId);
        attemptLocal(p, events_.now());
        return;
    }
    bus_.request([this, p, ref, op = action.busOp](double grant) {
        serveBus(p, ref, op, grant);
    });
}

void
TraceSimulator::attemptLocal(unsigned p, double issue_time)
{
    Proc &proc = *procs_[p];
    if (proc.snoopBusyUntil > events_.now()) {
        events_.schedule(proc.snoopBusyUntil, [this, p, issue_time] {
            attemptLocal(p, issue_time);
        });
        return;
    }
    events_.scheduleAfter(cfg_.timing.tSupply,
                          [this, p] { completeRequest(p); });
}

void
TraceSimulator::serveBus(unsigned p, TraceReference ref, BusOp op,
                         double grant_time)
{
    Proc &proc = *procs_[p];
    const BusTiming &t = cfg_.timing;

    // Survey the actual peer directories (the snoop).
    bool any_copy = false;
    bool dirty_holder = false;
    for (unsigned c = 0; c < cfg_.numProcessors; ++c) {
        if (c == p)
            continue;
        LineState s = procs_[c]->cache.lookup(ref.blockId);
        if (s == LineState::Invalid)
            continue;
        any_copy = true;
        dirty_holder |= isDirty(s);
    }

    bool is_miss = (op == BusOp::Read || op == BusOp::ReadMod);
    if (warm()) {
        switch (op) {
          case BusOp::Read:
            ++busOps_.reads;
            break;
          case BusOp::ReadMod:
            ++busOps_.readMods;
            break;
          case BusOp::Invalidate:
            ++busOps_.invalidates;
            break;
          case BusOp::WriteWord:
            ++busOps_.writeWords;
            break;
          default:
            break;
        }
    }
    if (!is_miss &&
        proc.cache.lookup(ref.blockId) == LineState::Invalid) {
        // A peer invalidated the line while this broadcast sat in the
        // bus queue; the access has become a miss and must fetch the
        // block instead.
        op = ref.isWrite ? BusOp::ReadMod : BusOp::Read;
        is_miss = true;
    }
    if (is_miss && warm() && ref.cls != StreamClass::Private)
        csupplyShared_.add(any_copy);

    // Transaction timing mirrors the analytical timing model.
    double start = grant_time;
    double duration = 0.0;
    int module_writes = 0;
    if (is_miss) {
        if (any_copy && dirty_holder && !cfg_.protocol.mod2) {
            duration = t.tWriteBack + t.tReadMem;
            ++module_writes;
        } else if (any_copy) {
            duration = t.tReadCache;
        } else {
            duration = t.tReadMem;
        }
    } else {
        // broadcast (write-word or invalidate)
        if (op == BusOp::WriteWord &&
            cfg_.protocol.broadcastUpdatesMemory()) {
            start = memory_.occupyRandom(grant_time, proc.rng);
        }
        duration = t.tWrite;
    }

    // Apply snoop actions to the actual peer caches.
    double end = start + duration;
    for (unsigned c = 0; c < cfg_.numProcessors; ++c) {
        if (c == p)
            continue;
        LineState s = procs_[c]->cache.lookup(ref.blockId);
        if (s == LineState::Invalid)
            continue;
        SnoopAction sa = onSnoop(s, op, cfg_.protocol);
        procs_[c]->cache.setState(ref.blockId, sa.next);
        if (sa.mustRespond) {
            double duty_end = sa.fullDuration ? end : start + 1.0;
            procs_[c]->snoopBusyUntil =
                std::max(procs_[c]->snoopBusyUntil, duty_end);
        }
    }

    // Update the requester's own line.
    if (is_miss) {
        LineState fill = fillState(op == BusOp::ReadMod, any_copy,
                                   cfg_.protocol);
        auto ev = proc.cache.fill(ref.blockId, fill);
        if (warm()) {
            victimDirty_.add(ev.valid && isDirty(ev.state));
            if (ev.valid && isDirty(ev.state))
                ++busOps_.writeBlocks;
        }
        if (ev.valid && isDirty(ev.state)) {
            duration += t.tWriteBack;
            end += t.tWriteBack;
            ++module_writes;
        }
    } else {
        ProcAction action = ref.isWrite
            ? onProcessorWrite(proc.cache.lookup(ref.blockId),
                               cfg_.protocol)
            : onProcessorRead(proc.cache.lookup(ref.blockId),
                              cfg_.protocol);
        proc.cache.setState(ref.blockId, action.next);
    }
    proc.cache.touch(ref.blockId);

    for (int w = 0; w < module_writes; ++w)
        memory_.occupyRandom(grant_time, proc.rng);

    bus_.releaseAt(end);
    events_.schedule(end + t.tSupply, [this, p] { completeRequest(p); });
}

void
TraceSimulator::completeRequest(unsigned p)
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
            ++measured_;
            if (measured_ >= cfg_.measuredRequests)
                done_ = true;
        }
    }
    ++completed_;
    proc.cycleStart = now;
    scheduleExecution(p);
}

TraceSimResult
TraceSimulator::run()
{
    for (unsigned p = 0; p < cfg_.numProcessors; ++p)
        scheduleExecution(p);
    events_.runUntil([this] { return done_; });
    if (!done_)
        panic("TraceSimulator: event queue drained before measurement "
              "ended");

    TraceSimResult r;
    r.numProcessors = cfg_.numProcessors;
    r.responseTime = responseTimes_.interval(0.95);
    double work = static_cast<double>(cfg_.numProcessors) *
        (cfg_.workload.tau + cfg_.timing.tSupply);
    r.speedup = work / r.responseTime.mean;
    double now = events_.now();
    r.busUtilization = bus_.utilization(now);
    r.memUtilization = memory_.utilization(now);
    r.meanBusWait = bus_.waitStats().mean();
    r.requestsMeasured = measured_;
    r.measured.hitPrivate = hitPrivate_.fraction();
    r.measured.hitSro = hitSro_.fraction();
    r.measured.hitSw = hitSw_.fraction();
    r.measured.amodPrivate = amodPrivate_.fraction();
    r.measured.amodSw = amodSw_.fraction();
    r.measured.csupplyShared = csupplyShared_.fraction();
    r.measured.repAll = victimDirty_.fraction();
    r.busOps = busOps_;
    return r;
}

} // namespace

TraceSimResult
simulateTrace(const TraceSimConfig &config)
{
    config.validate();
    TraceSimulator sim(config);
    return sim.run();
}

} // namespace snoop

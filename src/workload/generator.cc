#include "workload/generator.hh"

#include "util/contracts.hh"
#include "util/logging.hh"

namespace snoop {

std::string
to_string(StreamClass c)
{
    switch (c) {
      case StreamClass::Private:
        return "private";
      case StreamClass::SharedReadOnly:
        return "sro";
      case StreamClass::SharedWritable:
        return "sw";
    }
    panic("to_string(StreamClass): bad class %d", static_cast<int>(c));
}

ReferenceSampler::ReferenceSampler(const WorkloadParams &params, Rng rng)
    : params_(params), rng_(rng)
{
    SNOOP_REQUIRE_OK(params_.check());
}

SampledReference
ReferenceSampler::next()
{
    SampledReference r;
    double u = rng_.uniform();
    if (u < params_.pPrivate) {
        r.cls = StreamClass::Private;
        r.isWrite = !rng_.bernoulli(params_.rPrivate);
        r.hit = rng_.bernoulli(params_.hPrivate);
        if (r.hit && r.isWrite)
            r.alreadyModified = rng_.bernoulli(params_.amodPrivate);
        if (!r.hit) {
            // Private blocks are never resident in other caches.
            r.copyElsewhere = false;
            r.victimWriteback = rng_.bernoulli(params_.repP);
        }
    } else if (u < params_.pPrivate + params_.pSro) {
        r.cls = StreamClass::SharedReadOnly;
        r.isWrite = false;
        r.hit = rng_.bernoulli(params_.hSro);
        if (!r.hit) {
            r.copyElsewhere = rng_.bernoulli(params_.csupplySro);
            // sro blocks are never modified, so the supplier is clean
            // and the victim needs no write-back.
            r.supplierDirty = false;
            r.victimWriteback = false;
        }
    } else {
        r.cls = StreamClass::SharedWritable;
        r.isWrite = !rng_.bernoulli(params_.rSw);
        r.hit = rng_.bernoulli(params_.hSw);
        if (r.hit && r.isWrite)
            r.alreadyModified = rng_.bernoulli(params_.amodSw);
        if (!r.hit) {
            r.copyElsewhere = rng_.bernoulli(params_.csupplySw);
            if (r.copyElsewhere)
                r.supplierDirty = rng_.bernoulli(params_.wbCsupply);
            r.victimWriteback = rng_.bernoulli(params_.repSw);
        }
    }
    return r;
}

SyntheticTraceGenerator::SyntheticTraceGenerator(
    const WorkloadParams &params, const TraceConfig &cfg,
    unsigned processor, unsigned num_processors, Rng rng)
    : params_(params), cfg_(cfg), rng_(rng)
{
    SNOOP_REQUIRE_OK(params_.check());
    if (processor >= num_processors)
        panic("SyntheticTraceGenerator: processor %u out of range",
              processor);
    if (cfg.privateHotBlocks == 0 || cfg.sroBlocks == 0 ||
        cfg.swBlocks == 0) {
        fatal("SyntheticTraceGenerator: pools must be non-empty");
    }
    uint64_t per_proc = cfg.privateHotBlocks + cfg.privateColdBlocks;
    privBase_ = static_cast<uint64_t>(processor) * per_proc;
    sroBase_ = static_cast<uint64_t>(num_processors) * per_proc;
    swBase_ = sroBase_ + cfg.sroBlocks;
}

uint64_t
SyntheticTraceGenerator::samplePrivate()
{
    if (rng_.bernoulli(cfg_.privateLocality) || cfg_.privateColdBlocks == 0)
        return privBase_ + rng_.uniformInt(cfg_.privateHotBlocks);
    return privBase_ + cfg_.privateHotBlocks +
        rng_.uniformInt(cfg_.privateColdBlocks);
}

uint64_t
SyntheticTraceGenerator::sampleSro()
{
    uint64_t hot = std::min(cfg_.sroHotBlocks, cfg_.sroBlocks);
    if (hot > 0 && rng_.bernoulli(cfg_.sroLocality))
        return sroBase_ + rng_.uniformInt(hot);
    return sroBase_ + rng_.uniformInt(cfg_.sroBlocks);
}

uint64_t
SyntheticTraceGenerator::sampleSw()
{
    uint64_t hot = std::min(cfg_.swHotBlocks, cfg_.swBlocks);
    if (hot > 0 && rng_.bernoulli(cfg_.swLocality))
        return swBase_ + rng_.uniformInt(hot);
    return swBase_ + rng_.uniformInt(cfg_.swBlocks);
}

TraceReference
SyntheticTraceGenerator::next()
{
    TraceReference t;
    double u = rng_.uniform();
    if (u < params_.pPrivate) {
        t.cls = StreamClass::Private;
        t.isWrite = !rng_.bernoulli(params_.rPrivate);
        t.blockId = samplePrivate();
    } else if (u < params_.pPrivate + params_.pSro) {
        t.cls = StreamClass::SharedReadOnly;
        t.isWrite = false;
        t.blockId = sampleSro();
    } else {
        t.cls = StreamClass::SharedWritable;
        t.isWrite = !rng_.bernoulli(params_.rSw);
        t.blockId = sampleSw();
    }
    return t;
}

} // namespace snoop

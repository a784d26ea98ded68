#include "workload/derived.hh"

#include "util/contracts.hh"

namespace snoop {

Expected<void>
BusTiming::check() const
{
    if (tReadMem <= 0 || tReadCache <= 0 || tWriteBack <= 0 ||
        tWrite <= 0 || tSupply <= 0 || dMem <= 0) {
        return makeError(SolveErrorCode::InvalidArgument, "BusTiming",
                         "all times must be positive");
    }
    if (numModules < 1) {
        return makeError(SolveErrorCode::InvalidArgument, "BusTiming",
                         "numModules = %d must be >= 1", numModules);
    }
    return {};
}

DerivedInputs
DerivedInputs::compute(const WorkloadParams &base,
                       const ProtocolConfig &cfg, const BusTiming &timing)
{
    SNOOP_REQUIRE_OK(base.check());
    SNOOP_REQUIRE_OK(timing.check());

    DerivedInputs d;
    d.protocol = cfg;
    d.timing = timing;
    d.effective = base.adjustedFor(cfg);
    const WorkloadParams &p = d.effective;
    d.rates = EventRates::compute(p);
    const EventRates &e = d.rates;
    d.tau = p.tau;

    // --- Request-type split: p_local, p_bc, p_rr --------------------
    //
    // Hits that need no consistency action are local; write hits to
    // clean blocks broadcast; misses go to the bus as read / read-mod.
    d.pLocal = e.privReadHit + e.privWriteHitMod + e.sroHit +
        e.swReadHit + e.swWriteHitMod;
    double bc_priv = e.privWriteHitUnmod;
    double bc_sw = e.swWriteHitUnmod;

    if (cfg.mod4) {
        // Every write hit to a non-exclusive sw block broadcasts,
        // modified or not; with mod1 the fraction loaded exclusive
        // (nobody else had a copy) writes locally instead.
        double sw_write_hit = e.swWriteHitMod + e.swWriteHitUnmod;
        double excl_frac = cfg.mod1 ? (1.0 - p.csupplySw) : 0.0;
        bc_sw = sw_write_hit * (1.0 - excl_frac);
        d.pLocal = e.privReadHit + e.privWriteHitMod + e.sroHit +
            e.swReadHit + sw_write_hit * excl_frac;
    }
    if (cfg.mod1) {
        // Private blocks load exclusive (no other cache holds them),
        // so their first write is local rather than broadcast.
        d.pLocal += bc_priv;
        bc_priv = 0.0;
    }
    d.pBc = bc_priv + bc_sw;
    d.pRr = e.totalMiss();

    // --- Remote-read service components -----------------------------
    double miss = e.totalMiss();
    if (miss > 0.0) {
        d.pCsupwbGivenRr =
            e.swMiss() * p.csupplySw * p.wbCsupply / miss;
        d.pReqwbGivenRr =
            (e.privMiss() * p.repP + e.swMiss() * p.repSw) / miss;
    }

    // --- Mean remote-read bus access time t_read ---------------------
    //
    // Supply-source-dependent costs (see BusTiming): a miss supplied
    // by memory costs tReadMem; when another cache is involved the
    // transfer is faster (tReadCache); a dirty holder without mod2
    // first flushes the block (tWriteBack + memory read); the
    // requesting cache's victim write-back adds tWriteBack.
    const double tm = timing.tReadMem;
    const double tc = timing.tReadCache;
    const double twb = timing.tWriteBack;

    double t_priv = tm + p.repP * twb;
    double t_sro = p.csupplySro * tc + (1.0 - p.csupplySro) * tm;
    double sup_dirty = cfg.mod2 ? tc : (twb + tm);
    double t_sw = p.csupplySw *
            (p.wbCsupply * sup_dirty + (1.0 - p.wbCsupply) * tc) +
        (1.0 - p.csupplySw) * tm + p.repSw * twb;
    d.tRead = miss > 0.0
        ? (e.privMiss() * t_priv + e.sroMiss * t_sro +
           e.swMiss() * t_sw) / miss
        : 0.0;

    // --- Memory-demand factor for eq. (12) ---------------------------
    //
    // Broadcast writes update memory unless mod3 turned them into
    // invalidations (or mod3+mod4 broadcasts without update); dirty
    // suppliers stop updating memory under mod2.
    double mem_bc = cfg.broadcastUpdatesMemory() ? d.pBc : 0.0;
    double mem_csup = cfg.mod2 ? 0.0 : d.pCsupwbGivenRr;
    d.memFactor = mem_bc + d.pRr * (mem_csup + d.pReqwbGivenRr);

    // --- Appendix B cache-interference inputs ------------------------
    //
    // Conditioned on observing a bus request from another cache:
    // the 0.5 factors are the paper's copy-residency approximation.
    double tot_bus = d.pBc + d.pRr;
    if (tot_bus > 0.0) {
        d.pA = (e.sharedMiss() / tot_bus) * 0.5;
        d.pB = (bc_sw / tot_bus) * 0.5;
    }
    if (e.sharedMiss() > 0.0) {
        d.csupFrac = (p.csupplySro * e.sroMiss +
                      p.csupplySw * e.swMiss()) / e.sharedMiss();
    }
    d.repTerm = p.repP * p.pPrivate + p.repSw * p.pSw;
    d.wbCsupply = p.wbCsupply;

    return d;
}

} // namespace snoop

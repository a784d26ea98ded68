#include "util/fault.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "util/guarded.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

namespace {

// g_armed is the fast path: false (the default) means every site
// query returns immediately without touching the mutex. The spec list
// itself is Guarded; configuration changes must not race active
// parallel regions (same contract as setParallelJobs).
std::atomic<bool> g_armed{false};
Guarded<std::vector<FaultSpec>> g_specs;
std::once_flag g_env_once;

Expected<std::vector<FaultSpec>> parseSpecs(const std::string &spec);

/** Parse and install without touching the env once-flag. */
Expected<void>
installSpecs(const std::string &spec)
{
    SNOOP_TRY(std::vector<FaultSpec> parsed, parseSpecs(spec));
    auto specs = g_specs.lock();
    *specs = std::move(parsed);
    g_armed.store(!specs->empty(), std::memory_order_release);
    return {};
}

void
loadEnvImpl()
{
    const char *env = std::getenv("SNOOP_FAULT");
    auto ok = installSpecs(env ? env : "");
    if (!ok) {
        fatal("SNOOP_FAULT: %s", ok.error().describe().c_str());
    }
}

/**
 * Lazily consume SNOOP_FAULT before the first site query. An explicit
 * setFaultSpecs/clearFaultSpecs call also claims the flag (with a
 * no-op) so the environment can never overwrite programmatic
 * configuration afterwards.
 */
void
loadEnvOnce()
{
    std::call_once(g_env_once, [] { loadEnvImpl(); });
}

void
markEnvConsumed()
{
    std::call_once(g_env_once, [] {});
}

Expected<std::vector<FaultSpec>>
parseSpecs(const std::string &spec)
{
    std::vector<FaultSpec> specs;
    if (trim(spec).empty())
        return specs;
    for (const auto &part : split(spec, ',')) {
        auto fields = split(trim(part), ':');
        FaultSpec fs;
        fs.site = trim(fields[0]);
        if (fs.site.empty()) {
            return makeError(SolveErrorCode::InvalidArgument,
                             "setFaultSpecs",
                             "empty site name in '%s'", spec.c_str());
        }
        for (size_t i = 1; i < fields.size(); ++i) {
            std::string opt = trim(fields[i]);
            long n = 0;
            if (!startsWith(opt, "every=") ||
                !parseInt(opt.substr(6), n) || n < 1) {
                return makeError(
                    SolveErrorCode::InvalidArgument, "setFaultSpecs",
                    "bad option '%s' in '%s' (expected every=N, N >= 1)",
                    opt.c_str(), spec.c_str());
            }
            fs.every = static_cast<uint64_t>(n);
        }
        specs.push_back(std::move(fs));
    }
    return specs;
}

/** Armed spec for @p site in the locked @p specs, or nullptr. */
const FaultSpec *
findSpec(const std::vector<FaultSpec> &specs, const char *site)
{
    for (const auto &fs : specs) {
        if (fs.site == site)
            return &fs;
    }
    return nullptr;
}

} // namespace

Expected<void>
setFaultSpecs(const std::string &spec)
{
    markEnvConsumed();
    return installSpecs(spec);
}

void
clearFaultSpecs()
{
    markEnvConsumed();
    auto specs = g_specs.lock();
    specs->clear();
    g_armed.store(false, std::memory_order_release);
}

void
reloadFaultSpecsFromEnv()
{
    markEnvConsumed();
    loadEnvImpl();
}

std::vector<FaultSpec>
activeFaultSpecs()
{
    loadEnvOnce();
    auto specs = g_specs.lock();
    return *specs;
}

bool
faultArmed(const char *site)
{
    loadEnvOnce();
    if (!g_armed.load(std::memory_order_acquire))
        return false;
    auto specs = g_specs.lock();
    return findSpec(*specs, site) != nullptr;
}

bool
faultFires(const char *site, uint64_t key)
{
    loadEnvOnce();
    if (!g_armed.load(std::memory_order_acquire))
        return false;
    auto specs = g_specs.lock();
    const FaultSpec *fs = findSpec(*specs, site);
    return fs != nullptr && key % fs->every == 0;
}

SolveError
injectedFault(const char *site, uint64_t key)
{
    return makeError(SolveErrorCode::InjectedFault, site,
                     "injected fault (key %llu)",
                     static_cast<unsigned long long>(key));
}

} // namespace snoop

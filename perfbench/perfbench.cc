/**
 * @file
 * The benchmark's measuring binary. perfbench/run.py builds it, primes
 * its trace store and calls it once per sweep; see perfbench/README.md
 * for the workloads and metrics.
 *
 * Modes (--mode):
 *   prime  persist every trace and direction sidecar the warm
 *          workloads read, under --store, for suite seed --seed.
 *   run    set up --workload, run one timed sweep (core::runSuite, then
 *          report::buildSuiteReport, then RunReport::toJson().dump()),
 *          write every leg's counters to --legs-out and print one JSON
 *          line of timings. --setup-only stops at the runSuite call;
 *          --other-path runs the legs per-leg instead of fused or the
 *          reverse, for the leg-identity check.
 *   trace  the traced run: one untraced runSuite sweep, then the same
 *          work again through direct calls into each module's public
 *          functions with one span around each call, then the layers
 *          the workload itself does not reach. Writes the spans to
 *          --spans-out and prints the per-layer metrics as one JSON
 *          line.
 *
 * Set-up time is measured from --spawn-ns, the CLOCK_MONOTONIC time at
 * which the caller started this process.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/runner.hh"
#include "frontend/frontend.hh"
#include "frontend/fused.hh"
#include "report/json.hh"
#include "report/report.hh"
#include "telemetry/metrics.hh"
#include "trace/decoded_trace.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/suite.hh"
#include "workload/trace_store.hh"

namespace
{

using namespace ghrp;
using report::Json;

/** Workers for every sweep: the host's four CPUs. One worker's
 *  throughput drifts far more than four workers' (see NOISE.md). */
constexpr unsigned kJobs = 4;

/** Phase flight-recorder window of warm_fused, as in CI perf-smoke. */
constexpr std::uint64_t kPhaseWindow = 50000;

/** The paper's GHRP-vs-LRU mean MPKI change (EXPERIMENTS.md). */
constexpr double kPaperIcacheGhrpVsLruPct = -18.1;
constexpr double kPaperBtbGhrpVsLruPct = -30.0;

/** Traces per suite: workload::makeSuite at the run's seed, six per
 *  category, shared by every workload (see NOISE.md for the size). */
constexpr std::uint32_t kTraces = 24;

/** One benchmark workload. */
struct Workload
{
    const char *name;
    const char *policies;
    bool fused;
    std::uint64_t phaseWindow;
    bool warm;  ///< read traces and sidecars from the primed store
};

constexpr const char *kSixPolicies =
    "lru,random,srrip,sdbp,ghrp,duel:ghrp,lru";

const Workload kWorkloads[] = {
    {"warm_perleg", kSixPolicies, false, 0, true},
    {"warm_fused", kSixPolicies, true, kPhaseWindow, true},
    {"cold_suite", "lru,ghrp", false, 0, false},
};

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return w;
    fatal("perfbench: unknown workload '%s'", name.c_str());
}

std::uint64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<frontend::PolicySpec>
policiesOf(const Workload &w)
{
    return frontend::parsePolicyList(w.policies);
}

std::uint64_t
counter(const char *name)
{
    return telemetry::metrics().counter(name).get();
}

// ---------------------------------------------------------------------
// Leg counters: the full set the golden files pin.

Json
uintArray(std::initializer_list<std::uint64_t> values)
{
    Json a = Json::array();
    for (std::uint64_t v : values)
        a.push(v);
    return a;
}

Json
accessJson(const stats::AccessStats &s)
{
    return uintArray({s.accesses, s.hits, s.misses, s.bypasses,
                      s.evictions, s.deadEvictions});
}

Json
duelJson(const cache::DuelTelemetry &d)
{
    Json j = Json::object();
    j.set("final_psel", static_cast<std::int64_t>(d.finalPsel));
    j.set("leader_misses", uintArray({d.leaderMissesA, d.leaderMissesB}));
    j.set("winner_flips", d.winnerFlips);
    j.set("stride", d.sampleStride);
    Json traj = Json::array();
    for (std::int64_t v : d.trajectory)
        traj.push(v);
    j.set("trajectory", std::move(traj));
    return j;
}

/** One leg as one compact JSON line; field order is documented in
 *  README.md next to the golden files. */
Json
legJson(const frontend::FrontendResult &r, const std::string &policy)
{
    Json j = Json::object();
    j.set("trace", r.traceName);
    j.set("policy", policy);
    j.set("instructions", uintArray({r.totalInstructions,
                                     r.warmupInstructions,
                                     r.measuredInstructions}));
    j.set("icache", accessJson(r.icache));
    j.set("btb", accessJson(r.btb));
    j.set("direction", uintArray({r.condBranches, r.condMispredicts}));
    j.set("target_mismatches", r.btbTargetMismatches);
    j.set("ras", uintArray({r.rasReturns, r.rasMispredicts}));
    j.set("indirect",
          uintArray({r.indirectBranches, r.indirectMispredicts}));
    if (r.hasDuel) {
        j.set("duel_icache", duelJson(r.icacheDuel));
        j.set("duel_btb", duelJson(r.btbDuel));
    }
    if (r.hasPhases) {
        Json records = Json::array();
        for (const frontend::PhaseRecord &p : r.phases.records) {
            Json rec = uintArray(
                {p.window, p.instructions, p.icacheAccesses,
                 p.icacheMisses, p.icacheEvictions, p.btbAccesses,
                 p.btbMisses, p.btbEvictions, p.condBranches,
                 p.condMispredicts, p.btbTargetMismatches, p.deadHits,
                 p.liveHits, p.deadEvictions, p.liveEvictions});
            rec.push(static_cast<std::int64_t>(p.psel));
            records.push(std::move(rec));
        }
        Json phases = Json::object();
        phases.set("window", r.phases.window);
        phases.set("stride", r.phases.stride);
        phases.set("records", std::move(records));
        j.set("phases", std::move(phases));
    }
    return j;
}

void
writeLegs(const core::SuiteResults &results, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    for (const auto &[policy, legs] : results.results)
        for (const frontend::FrontendResult &r : legs)
            out << legJson(r, frontend::policyName(policy)).dump(0) << '\n';
    if (!out.flush())
        fatal("perfbench: cannot write '%s'", path.c_str());
}

// ---------------------------------------------------------------------
// Set-up: options, the suite and store verification.

struct Setup
{
    core::SuiteOptions options;
    std::vector<workload::TraceSpec> specs;
    /** Traces whose store file failed to open (warm workloads only). */
    std::size_t unverified = 0;
};

Setup
setUp(const Workload &w, std::uint64_t seed, const std::string &store)
{
    Setup s;
    s.options.numTraces = kTraces;
    s.options.baseSeed = seed;
    s.options.policies = policiesOf(w);
    s.options.jobs = kJobs;
    s.options.fused = w.fused;
    s.options.base.phaseWindow = w.phaseWindow;
    s.options.traceCacheDir = w.warm ? store : std::string();
    s.specs = workload::makeSuite(kTraces, seed);
    if (w.warm) {
        const workload::TraceStore verify(store);
        for (const workload::TraceSpec &spec : s.specs)
            if (!trace::MappedTrace::tryOpen(verify.pathFor(spec, 0)))
                ++s.unverified;
    }
    return s;
}

/** Fill the store through runSuite's own trace build: every trace and
 *  direction sidecar of the suite, plus one LRU leg per trace. */
int
prime(std::uint64_t seed, const std::string &store_dir)
{
    core::SuiteOptions options;
    options.numTraces = kTraces;
    options.baseSeed = seed;
    options.policies = {frontend::PolicyKind::Lru};
    options.jobs = kJobs;
    options.traceCacheDir = store_dir;
    const workload::TraceStore::Stats st =
        core::runSuite(options).traceStore;
    std::printf("{\"traces\": %u, \"generated\": %llu, \"stored\": %llu}\n",
                options.numTraces, static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.stores));
    return st.misses == st.stores ? 0 : 1;
}

// ---------------------------------------------------------------------
// The timed sweep.

struct Sweep
{
    core::SuiteResults results;
    double seconds = 0.0;  ///< runSuite + buildSuiteReport + dump
    std::size_t reportBytes = 0;
    /** The warm workloads read every trace and sidecar from the store;
     *  the cold one runs with no store at all. */
    bool storeOk = false;
};

Sweep
timedSweep(const Workload &w, const Setup &s)
{
    Sweep sweep;
    const std::uint64_t dir_misses0 =
        counter("trace_store.direction_misses");
    const auto start = std::chrono::steady_clock::now();
    sweep.results = core::runSuite(s.options);
    const report::RunReport rep = report::buildSuiteReport(
        std::string("perfbench_") + w.name, s.options, sweep.results);
    sweep.reportBytes = rep.toJson().dump().size();
    sweep.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    const std::uint64_t dir_misses =
        counter("trace_store.direction_misses") - dir_misses0;

    const core::SuiteResults &r = sweep.results;
    sweep.storeOk = w.warm ? r.traceStoreEnabled && s.unverified == 0 &&
                                 r.traceStore.misses == 0 &&
                                 dir_misses == 0 &&
                                 r.traceStore.hits == s.specs.size()
                           : !r.traceStoreEnabled;
    return sweep;
}

double
busySeconds(const core::SuiteResults &results)
{
    double busy = 0.0;
    for (const auto &[policy, secs] : results.legSeconds)
        for (double v : secs)
            busy += v;
    return busy;
}

int
runTimed(const Workload &w, std::uint64_t seed, const std::string &store,
         std::uint64_t spawn_ns, bool setup_only, bool other_path,
         const std::string &legs_out)
{
    Setup s = setUp(w, seed, store);
    // The reference for a seed with no golden: the same legs through
    // the other execution path, which must agree bit for bit.
    if (other_path)
        s.options.fused = !s.options.fused;
    const double setup_s =
        static_cast<double>(monotonicNs() - spawn_ns) * 1e-9;
    if (setup_only) {
        std::printf("{\"setup_s\": %.9f}\n", setup_s);
        return 0;
    }

    const Sweep sweep = timedSweep(w, s);
    if (!legs_out.empty())
        writeLegs(sweep.results, legs_out);

    Json out = Json::object();
    out.set("setup_s", setup_s);
    out.set("timed_s", sweep.seconds);
    out.set("instructions", sweep.results.simulatedInstructions());
    out.set("peak_rss_mb", peakRssMb());
    out.set("store_ok", sweep.storeOk);
    out.set("report_bytes", static_cast<std::uint64_t>(sweep.reportBytes));
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}

// ---------------------------------------------------------------------
// The traced run.

/** Spans kept in memory and written at exit. */
class SpanLog
{
  public:
    using Id = std::uint64_t;

    struct Span
    {
        Id id;
        Id parent;  ///< 0 for a root span
        std::string name;
        std::string detail;
        std::uint64_t startNs;
        std::uint64_t endNs;
        double units;  ///< work done: instructions, records or ops
    };

    explicit SpanLog(std::string run_id) : runId(std::move(run_id)) {}

    /** An id for a span recorded later, so children can name it. */
    Id reserve() { return nextId.fetch_add(1, std::memory_order_relaxed); }

    /** Record a span under the id reserve() gave out. */
    void
    add(Id id, Id parent, std::string name, std::string detail,
        std::uint64_t start_ns, std::uint64_t end_ns, double units)
    {
        std::lock_guard<std::mutex> lock(mutex);
        spans.push_back({id, parent, std::move(name), std::move(detail),
                         start_ns, end_ns, units});
    }

    /** Record a span with no children. */
    void
    add(Id parent, std::string name, std::string detail,
        std::uint64_t start_ns, std::uint64_t end_ns, double units)
    {
        add(reserve(), parent, std::move(name), std::move(detail), start_ns,
            end_ns, units);
    }

    /** Sum of (nanoseconds, units) over spans named @p name whose
     *  detail starts with @p detail_prefix, under @p parent if not 0. */
    std::pair<double, double>
    total(const std::string &name, const std::string &detail_prefix = {},
          Id parent = 0) const
    {
        std::lock_guard<std::mutex> lock(mutex);
        double ns = 0.0, units = 0.0;
        for (const Span &s : spans) {
            if (s.name != name || s.detail.rfind(detail_prefix, 0) != 0 ||
                (parent != 0 && s.parent != parent))
                continue;
            ns += static_cast<double>(s.endNs - s.startNs);
            units += s.units;
        }
        return {ns, units};
    }

    void
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::ofstream out(path, std::ios::trunc);
        for (const Span &s : spans) {
            Json j = Json::object();
            j.set("run", runId);
            j.set("id", s.id);
            j.set("parent", s.parent);
            j.set("name", s.name);
            j.set("detail", s.detail);
            j.set("start_ns", s.startNs);
            j.set("end_ns", s.endNs);
            j.set("units", s.units);
            out << j.dump(0) << '\n';
        }
        if (!out.flush())
            fatal("perfbench: cannot write '%s'", path.c_str());
    }

  private:
    const std::string runId;
    std::atomic<Id> nextId{1};
    mutable std::mutex mutex;
    std::vector<Span> spans;
};

/** What one traced pass does for each trace of the suite. */
struct Plan
{
    bool cold = false;  ///< buildTrace + decodeTrace + resolve
    bool warm = false;  ///< TraceStore::acquireDecoded + sidecar load
    std::vector<frontend::PolicySpec> perLeg;  ///< simulateDecoded legs
    std::vector<frontend::PolicySpec> fused;   ///< simulateFused lanes
    std::vector<std::uint64_t> fusedWindows;   ///< one group per window
};

std::uint64_t
conditionals(const trace::DecodedTrace &dec)
{
    return static_cast<std::uint64_t>(std::count_if(
        dec.brMeta.begin(), dec.brMeta.end(),
        [](std::uint8_t m) { return trace::branch_meta::conditional(m); }));
}

std::string
windowDetail(std::uint64_t window)
{
    return "window=" + std::to_string(window);
}

/**
 * One traced pass over @p specs on kJobs workers, scheduled like
 * runSuite's parallel path: each trace is acquired by one pool job,
 * then each leg (or fused group) is a job of its own, with at most
 * 2 x kJobs traces in flight. Fills @p out with the per-leg results
 * of plan.perLeg (or, without per-leg legs, of the first fused group)
 * so the report layer can be timed on them.
 */
void
tracedPass(const Plan &plan, const std::vector<workload::TraceSpec> &specs,
           const std::string &store_dir, SpanLog &log, SpanLog::Id parent,
           core::SuiteResults &out)
{
    using DecodedPtr = std::shared_ptr<const trace::DecodedTrace>;
    const frontend::FrontendConfig base;
    workload::TraceStore store(plan.warm ? store_dir : std::string());

    out.specs = specs;
    const std::vector<frontend::PolicySpec> &kept =
        plan.perLeg.empty() ? plan.fused : plan.perLeg;
    for (const frontend::PolicySpec &p : kept) {
        out.results[p].resize(specs.size());
        out.legSeconds[p].resize(specs.size(), 0.0);
    }

    const auto build = [&](const workload::TraceSpec &spec) {
        trace::DecodedTrace dec;
        if (plan.cold) {
            const std::uint64_t t0 = monotonicNs();
            const trace::Trace tr = workload::buildTrace(spec, 0);
            const std::uint64_t t1 = monotonicNs();
            dec = trace::decodeTrace(tr, base.icache.blockBytes,
                                     base.instBytes);
            const std::uint64_t t2 = monotonicNs();
            const double instr =
                static_cast<double>(dec.totalInstructions());
            log.add(parent, "workload.buildTrace", spec.name, t0, t1, instr);
            log.add(parent, "trace.decodeTrace", spec.name, t1, t2, instr);
            frontend::resolveDirectionStream(dec, base.direction);
            log.add(parent, "frontend.resolveDirectionStream", spec.name, t2,
                    monotonicNs(), static_cast<double>(conditionals(dec)));
        }
        if (plan.warm) {
            const std::uint64_t t0 = monotonicNs();
            dec = store.acquireDecoded(spec, 0, base.icache.blockBytes,
                                       base.instBytes);
            const std::uint64_t t1 = monotonicNs();
            log.add(parent, "TraceStore.acquireDecoded", spec.name, t0, t1,
                    static_cast<double>(dec.totalInstructions()));
            const int kind = static_cast<int>(base.direction);
            if (!store.loadDirectionStream(spec, 0, kind, dec))
                fatal("perfbench: trace store '%s' lacks the direction "
                      "sidecar of %s", store_dir.c_str(),
                      spec.name.c_str());
            log.add(parent, "TraceStore.loadDirectionStream", spec.name, t1,
                    monotonicNs(), static_cast<double>(dec.numRecords()));
        }
        const std::uint64_t t0 = monotonicNs();
        const std::size_t bytes = dec.memoryBytes();
        log.add(parent, "DecodedTrace.memoryBytes", spec.name, t0,
                monotonicNs(), static_cast<double>(bytes));
        return DecodedPtr(
            std::make_shared<trace::DecodedTrace>(std::move(dec)));
    };

    const auto legJobs = [&](util::ThreadPool &pool, std::size_t i,
                             const DecodedPtr &dec) {
        std::vector<std::future<void>> jobs;
        const double ops = static_cast<double>(dec->numFetchOps());
        for (const frontend::PolicySpec &policy : plan.perLeg)
            jobs.push_back(pool.submit([&, i, policy, dec, ops]() {
                frontend::FrontendConfig config = base;
                config.policy = policy;
                const std::uint64_t t0 = monotonicNs();
                frontend::FrontendResult r =
                    frontend::simulateDecoded(config, *dec);
                const std::uint64_t t1 = monotonicNs();
                log.add(parent, "frontend.simulateDecoded",
                        frontend::policyName(policy) + " " + specs[i].name,
                        t0, t1, ops);
                r.traceName = specs[i].name;
                out.results[policy][i] = std::move(r);
                out.legSeconds[policy][i] =
                    static_cast<double>(t1 - t0) * 1e-9;
            }));
        for (std::size_t g = 0; g < plan.fusedWindows.size(); ++g)
            jobs.push_back(pool.submit([&, i, g, dec, ops]() {
                frontend::FrontendConfig config = base;
                config.phaseWindow = plan.fusedWindows[g];
                const double lane_ops =
                    ops * static_cast<double>(plan.fused.size());
                const std::uint64_t t0 = monotonicNs();
                std::vector<frontend::FrontendResult> rs =
                    frontend::simulateFused(config, plan.fused, *dec);
                const std::uint64_t t1 = monotonicNs();
                log.add(parent, "frontend.simulateFused",
                        windowDetail(plan.fusedWindows[g]) + " " +
                            specs[i].name,
                        t0, t1, lane_ops);
                if (g != 0 || !plan.perLeg.empty())
                    return;
                const double per_lane = static_cast<double>(t1 - t0) *
                                        1e-9 /
                                        static_cast<double>(rs.size());
                for (std::size_t lane = 0; lane < rs.size(); ++lane) {
                    rs[lane].traceName = specs[i].name;
                    out.results[plan.fused[lane]][i] = std::move(rs[lane]);
                    out.legSeconds[plan.fused[lane]][i] = per_lane;
                }
            }));
        return jobs;
    };

    const std::size_t window = 2 * kJobs;
    std::vector<std::future<DecodedPtr>> builds(specs.size());
    std::deque<std::vector<std::future<void>>> inflight;
    // Destroyed first, so no job outlives what it references even when
    // a future rethrows.
    util::ThreadPool pool(kJobs);
    std::size_t next = 0;
    const auto pump = [&](std::size_t upto) {
        for (; next < std::min(upto, specs.size()); ++next)
            builds[next] = pool.submit(
                [&build, &spec = specs[next]]() { return build(spec); });
    };
    pump(window);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const DecodedPtr dec = builds[i].get();
        inflight.push_back(legJobs(pool, i, dec));
        pump(i + 1 + window);
        if (inflight.size() >= window) {
            for (std::future<void> &f : inflight.front())
                f.get();
            inflight.pop_front();
        }
    }
    for (std::vector<std::future<void>> &jobs : inflight)
        for (std::future<void> &f : jobs)
            f.get();
}

/** ns per unit over the spans SpanLog::total selects. */
double
nsPer(const SpanLog &log, const std::string &name,
      const std::string &detail_prefix = {}, SpanLog::Id parent = 0)
{
    const auto [ns, units] = log.total(name, detail_prefix, parent);
    return units > 0.0 ? ns / units : 0.0;
}

/** The passes of the traced run: first the workload's own work, then
 *  whatever layers it does not reach, so every per-layer metric is
 *  measured on every workload. */
std::pair<Plan, Plan>
plansFor(const Workload &w)
{
    const std::vector<frontend::PolicySpec> six =
        frontend::parsePolicyList(kSixPolicies);
    Plan own, rest;
    own.cold = !w.warm;
    own.warm = w.warm;
    rest.cold = w.warm;
    rest.warm = !w.warm;
    // The fused and phase metrics compare groups with the recorder on
    // and off within one pass, so the second pass always runs both.
    rest.fused = six;
    rest.fusedWindows = {0, kPhaseWindow};
    if (w.fused) {
        own.fused = policiesOf(w);
        own.fusedWindows = {w.phaseWindow};
        rest.perLeg = six;
    } else {
        own.perLeg = policiesOf(w);
        for (const frontend::PolicySpec &p : six)
            if (std::find(own.perLeg.begin(), own.perLeg.end(), p) ==
                own.perLeg.end())
                rest.perLeg.push_back(p);
    }
    return {own, rest};
}

double
meanMpki(const core::SuiteResults &r, frontend::PolicyKind p, bool btb)
{
    return core::SuiteResults::mean(btb ? r.btbMpki(p) : r.icacheMpki(p));
}

int
runTraced(const Workload &w, std::uint64_t seed, const std::string &store,
          const std::string &spans_out, const std::string &legs_out)
{
    const Setup s = setUp(w, seed, store);

    // Untraced sweep of the same work: the overhead baseline, the
    // legs checked against the golden and the source of
    // core.worker_busy_pct.
    const Sweep sweep = timedSweep(w, s);
    const core::SuiteResults &untraced = sweep.results;
    if (!legs_out.empty())
        writeLegs(untraced, legs_out);

    const std::string run_id = std::string(w.name) + "-seed" +
                               std::to_string(seed) + "-" +
                               std::to_string(monotonicNs());
    SpanLog log(run_id);
    const auto [own, rest] = plansFor(w);

    // The workload's own work, traced.
    const SpanLog::Id root = log.reserve();
    const std::uint64_t t0 = monotonicNs();
    core::SuiteResults traced;
    tracedPass(own, s.specs, store, log, root, traced);
    const std::uint64_t b0 = monotonicNs();
    const report::RunReport rep =
        report::buildSuiteReport("perfbench", s.options, traced);
    const std::uint64_t b1 = monotonicNs();
    const std::string doc = rep.toJson().dump();
    const std::uint64_t t1 = monotonicNs();
    log.add(root, "report.buildSuiteReport", w.name, b0, b1, 0.0);
    log.add(root, "report.dump", w.name, b1, t1,
            static_cast<double>(doc.size()));
    log.add(root, 0, "perfbench.sweep", w.name, t0, t1,
            static_cast<double>(traced.simulatedInstructions()));

    // The layers this workload does not reach.
    const SpanLog::Id rest_root = log.reserve();
    const std::uint64_t r0 = monotonicNs();
    core::SuiteResults ignored;
    tracedPass(rest, s.specs, store, log, rest_root, ignored);
    log.add(rest_root, 0, "perfbench.other_layers", w.name, r0,
            monotonicNs(), 0.0);

    const double untraced_minstr =
        static_cast<double>(untraced.simulatedInstructions()) * 1e-6 /
        sweep.seconds;
    const double traced_minstr =
        static_cast<double>(traced.simulatedInstructions()) * 1e3 /
        static_cast<double>(t1 - t0);

    Json m = Json::object();
    const auto put = [&m](const std::string &name, double value,
                          const char *unit) {
        Json v = Json::object();
        v.set("value", value);
        v.set("unit", unit);
        m.set(name, std::move(v));
    };
    put("workload.gen_ns_per_instr", nsPer(log, "workload.buildTrace"),
        "ns/instr");
    put("trace.decode_ns_per_instr", nsPer(log, "trace.decodeTrace"),
        "ns/instr");
    put("branch.resolve_ns_per_cond",
        nsPer(log, "frontend.resolveDirectionStream"), "ns/cond");
    put("workload.store_load_ns_per_instr",
        nsPer(log, "TraceStore.acquireDecoded"), "ns/instr");
    put("workload.sidecar_load_ns_per_record",
        nsPer(log, "TraceStore.loadDirectionStream"), "ns/record");
    const double bytes = log.total("DecodedTrace.memoryBytes").second;
    const double instr =
        log.total("TraceStore.acquireDecoded").second +
        log.total("trace.decodeTrace").second;
    put("trace.decoded_bytes_per_instr", instr ? bytes / instr : 0.0,
        "bytes/instr");

    // Keyed by the policy name in lower case with ':' and ',' as '_'.
    std::map<std::string, double> leg;
    for (const frontend::PolicySpec &p :
         frontend::parsePolicyList(kSixPolicies)) {
        const std::string name = frontend::policyName(p);
        std::string key;
        for (char c : name)
            key += std::isalnum(static_cast<unsigned char>(c))
                       ? static_cast<char>(
                             std::tolower(static_cast<unsigned char>(c)))
                       : '_';
        leg[key] = nsPer(log, "frontend.simulateDecoded", name + " ");
        put("frontend.leg_ns_per_op." + key, leg[key], "ns/op");
    }
    put("predictor.ghrp_ns_per_op_over_lru", leg["ghrp"] - leg["lru"],
        "ns/op");
    put("predictor.sdbp_ns_per_op_over_lru", leg["sdbp"] - leg["lru"],
        "ns/op");
    put("cache.duel_ns_per_op_over_ghrp", leg["duel_ghrp_lru"] - leg["ghrp"],
        "ns/op");

    const double fused_off = nsPer(log, "frontend.simulateFused",
                                   windowDetail(0) + " ", rest_root);
    const double fused_on = nsPer(log, "frontend.simulateFused",
                                  windowDetail(kPhaseWindow) + " ",
                                  rest_root);
    put("frontend.fused_ns_per_lane_op", fused_off, "ns/op");
    put("frontend.phase_ns_per_op", fused_on - fused_off, "ns/op");

    put("core.worker_busy_pct",
        100.0 * busySeconds(untraced) / (untraced.wallSeconds * kJobs),
        "%");
    put("report.build_ms",
        log.total("report.buildSuiteReport").first * 1e-6, "ms");
    put("report.dump_ms", log.total("report.dump").first * 1e-6, "ms");
    put("report.bytes", log.total("report.dump").second, "bytes");

    std::uint64_t cond = 0, misp = 0;
    for (const frontend::FrontendResult &r :
         untraced.results.at(frontend::PolicyKind::Lru)) {
        cond += r.condBranches;
        misp += r.condMispredicts;
    }
    put("branch.cond_mispredict_rate",
        cond ? static_cast<double>(misp) / static_cast<double>(cond) : 0.0,
        "ratio");
    const double ic_lru =
        meanMpki(untraced, frontend::PolicyKind::Lru, false);
    const double ic_ghrp =
        meanMpki(untraced, frontend::PolicyKind::Ghrp, false);
    const double btb_lru =
        meanMpki(untraced, frontend::PolicyKind::Lru, true);
    const double btb_ghrp =
        meanMpki(untraced, frontend::PolicyKind::Ghrp, true);
    put("cache.icache_mpki.lru", ic_lru, "mpki");
    put("cache.icache_mpki.ghrp", ic_ghrp, "mpki");
    put("cache.btb_mpki.lru", btb_lru, "mpki");
    put("cache.btb_mpki.ghrp", btb_ghrp, "mpki");
    const double ic_rel = 100.0 * (ic_ghrp - ic_lru) / ic_lru;
    const double btb_rel = 100.0 * (btb_ghrp - btb_lru) / btb_lru;
    put("cache.icache_ghrp_vs_lru_pct", ic_rel, "%");
    put("cache.icache_ghrp_vs_lru_error_pp",
        ic_rel - kPaperIcacheGhrpVsLruPct, "pp");
    put("cache.btb_ghrp_vs_lru_pct", btb_rel, "%");
    put("cache.btb_ghrp_vs_lru_error_pp", btb_rel - kPaperBtbGhrpVsLruPct,
        "pp");

    put("perfbench.traced_sim_minstr_per_s", traced_minstr, "Minstr/s");
    put("perfbench.tracing_overhead_minstr_per_s",
        untraced_minstr - traced_minstr, "Minstr/s");

    log.write(spans_out);
    Json out = Json::object();
    out.set("store_ok", sweep.storeOk);
    out.set("metrics", std::move(m));
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const core::CliOptions cli(argc, argv);
    setLogLevel(LogLevel::Warn);
    const std::string mode = cli.getString("mode", "");
    const std::uint64_t seed = cli.getUint("seed", 42);
    const std::string store = cli.getString("store", "");
    if (mode == "prime")
        return prime(seed, store);
    const Workload &w = findWorkload(cli.getString("workload", ""));
    if (mode == "run")
        return runTimed(w, seed, store, cli.getUint("spawn-ns", 0),
                        cli.has("setup-only"), cli.has("other-path"),
                        cli.getString("legs-out", ""));
    if (mode == "trace")
        return runTraced(w, seed, store, cli.getString("spans-out", ""),
                         cli.getString("legs-out", ""));
    fatal("perfbench: unknown --mode '%s'", mode.c_str());
}

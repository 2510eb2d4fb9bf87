#include "report/report.hh"

#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "stats/confidence.hh"
#include "util/thread_pool.hh"

// Configure-time provenance, injected by src/report/CMakeLists.txt.
#ifndef GHRP_GIT_DESCRIBE
#define GHRP_GIT_DESCRIBE "unknown"
#endif
#ifndef GHRP_BUILD_TYPE
#define GHRP_BUILD_TYPE "unknown"
#endif
#ifndef GHRP_CXX_FLAGS
#define GHRP_CXX_FLAGS ""
#endif

namespace ghrp::report
{

namespace
{

const char *
directionName(frontend::DirectionKind kind)
{
    switch (kind) {
    case frontend::DirectionKind::HashedPerceptron:
        return "hashed-perceptron";
    case frontend::DirectionKind::Gshare: return "gshare";
    case frontend::DirectionKind::Bimodal: return "bimodal";
    }
    return "unknown";
}

std::string
compilerString()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
hostnameString()
{
#ifndef _WIN32
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0])
        return buf;
#endif
    return "unknown";
}

std::vector<std::pair<std::string, std::string>>
captureBuild()
{
    return {
        {"gitDescribe", GHRP_GIT_DESCRIBE},
        {"buildType", GHRP_BUILD_TYPE},
        {"cxxFlags", GHRP_CXX_FLAGS},
        {"compiler", compilerString()},
        {"cxxStandard", std::to_string(__cplusplus)},
    };
}

std::vector<std::pair<std::string, std::string>>
captureEnvironment()
{
#if defined(__linux__)
    const char *os = "linux";
#elif defined(__APPLE__)
    const char *os = "darwin";
#else
    const char *os = "unknown";
#endif
    return {
        {"hostname", hostnameString()},
        {"os", os},
        {"pointerBits", std::to_string(sizeof(void *) * 8)},
        {"hardwareJobs",
         std::to_string(util::ThreadPool::hardwareJobs())},
    };
}

void
stamp(RunReport &report)
{
    report.createdUnix = std::chrono::duration_cast<std::chrono::seconds>(
                             std::chrono::system_clock::now()
                                 .time_since_epoch())
                             .count();
    long pid = 0;
#ifndef _WIN32
    pid = static_cast<long>(getpid());
#endif
    report.runId = report.experiment + "-" +
                   std::to_string(report.createdUnix) + "-" +
                   std::to_string(pid);
    report.build = captureBuild();
    report.environment = captureEnvironment();
}

/** JSON value of one field-list member. */
template <typename T>
Json
fieldValue(const T &v)
{
    return Json(v);
}

Json
fieldValue(const std::vector<std::int64_t> &v)
{
    Json a = Json::array();
    for (std::int64_t x : v)
        a.push(x);
    return a;
}

void
readValue(const Json &j, std::uint64_t &v)
{
    v = j.asUint();
}

void
readValue(const Json &j, std::int64_t &v)
{
    v = j.asInt();
}

void
readValue(const Json &j, std::vector<std::int64_t> &v)
{
    for (const Json &x : j.asArray())
        v.push_back(x.asInt());
}

/** Serialize every member of @p s named by S::forEachField. */
template <typename S>
Json
fieldsToJson(const S &s)
{
    Json j = Json::object();
    S::forEachField([&](const char *key, auto member) {
        j.set(key, fieldValue(s.*member));
    });
    return j;
}

/** Inverse of fieldsToJson. */
template <typename S>
S
fieldsFromJson(const Json &j)
{
    S s;
    S::forEachField([&](const char *key, auto member) {
        readValue(j.at(key), s.*member);
    });
    return s;
}

Json
accessJson(const stats::AccessStats &s, double mpki)
{
    Json j = fieldsToJson(s);
    j.set("mpki", mpki);
    return j;
}

stats::AccessStats
accessFromJson(const Json &j, double &mpki)
{
    mpki = j.at("mpki").asDouble();
    return fieldsFromJson<stats::AccessStats>(j);
}

} // anonymous namespace

Json
legToJson(const Leg &leg)
{
    const frontend::FrontendResult &r = leg.result;
    Json j = Json::object();
    j.set("trace", r.traceName);
    j.set("policy", r.policy);
    j.set("seconds", leg.seconds);

    Json instr = Json::object();
    instr.set("total", r.totalInstructions);
    instr.set("warmup", r.warmupInstructions);
    instr.set("measured", r.measuredInstructions);
    j.set("instructions", std::move(instr));

    j.set("icache", accessJson(r.icache, r.icacheMpki));
    j.set("btb", accessJson(r.btb, r.btbMpki));

    Json branch = Json::object();
    frontend::FrontendResult::forEachBranchCounter(
        [&](const char *key, auto member) { branch.set(key, r.*member); });
    j.set("branch", std::move(branch));

    if (r.hasDuel) {
        Json duel = Json::object();
        duel.set("icache", fieldsToJson(r.icacheDuel));
        duel.set("btb", fieldsToJson(r.btbDuel));
        j.set("duel", std::move(duel));
    }
    if (r.hasPhases) {
        Json phases = Json::object();
        phases.set("window", r.phases.window);
        phases.set("stride", r.phases.stride);
        Json records = Json::array();
        for (const frontend::PhaseRecord &record : r.phases.records)
            records.push(fieldsToJson(record));
        phases.set("records", std::move(records));
        j.set("phases", std::move(phases));
    }
    return j;
}

Leg
legFromJson(const Json &j)
{
    try {
        Leg leg;
        frontend::FrontendResult &r = leg.result;
        r.traceName = j.at("trace").asString();
        r.policy = j.at("policy").asString();
        leg.seconds = j.at("seconds").asDouble();
        const Json &instr = j.at("instructions");
        r.totalInstructions = instr.at("total").asUint();
        r.warmupInstructions = instr.at("warmup").asUint();
        r.measuredInstructions = instr.at("measured").asUint();
        r.icache = accessFromJson(j.at("icache"), r.icacheMpki);
        r.btb = accessFromJson(j.at("btb"), r.btbMpki);
        const Json &branch = j.at("branch");
        frontend::FrontendResult::forEachBranchCounter(
            [&](const char *key, auto member) {
                r.*member = branch.at(key).asUint();
            });
        if (const Json *duel = j.find("duel")) {
            r.hasDuel = true;
            r.icacheDuel =
                fieldsFromJson<cache::DuelTelemetry>(duel->at("icache"));
            r.btbDuel = fieldsFromJson<cache::DuelTelemetry>(duel->at("btb"));
        }
        if (const Json *phases = j.find("phases")) {
            r.hasPhases = true;
            r.phases.window = phases->at("window").asUint();
            r.phases.stride = phases->at("stride").asUint();
            for (const Json &record : phases->at("records").asArray())
                r.phases.records.push_back(
                    fieldsFromJson<frontend::PhaseRecord>(record));
        }
        return leg;
    } catch (const JsonError &e) {
        throw ReportError(std::string("malformed leg: ") + e.what());
    }
}

namespace
{

Json
relToJson(const RelToLru &rel)
{
    Json j = Json::object();
    j.set("meanPct", rel.meanPct);
    j.set("ciHalfWidthPct", rel.ciHalfWidthPct);
    j.set("traces", rel.traces);
    return j;
}

RelToLru
relFromJson(const Json *j)
{
    RelToLru rel;
    if (!j)
        return rel;
    rel.present = true;
    rel.meanPct = j->at("meanPct").asDouble();
    rel.ciHalfWidthPct = j->at("ciHalfWidthPct").asDouble();
    rel.traces = j->at("traces").asUint();
    return rel;
}

Json
policyToJson(const PolicySummary &p)
{
    Json j = Json::object();
    j.set("policy", p.policy);
    Json icache = Json::object();
    icache.set("meanMpki", p.icacheMeanMpki);
    if (p.icacheVsLru.present)
        icache.set("vsLru", relToJson(p.icacheVsLru));
    j.set("icache", std::move(icache));
    Json btb = Json::object();
    btb.set("meanMpki", p.btbMeanMpki);
    if (p.btbVsLru.present)
        btb.set("vsLru", relToJson(p.btbVsLru));
    j.set("btb", std::move(btb));
    return j;
}

PolicySummary
policyFromJson(const Json &j)
{
    PolicySummary p;
    p.policy = j.at("policy").asString();
    const Json &icache = j.at("icache");
    p.icacheMeanMpki = icache.at("meanMpki").asDouble();
    p.icacheVsLru = relFromJson(icache.find("vsLru"));
    const Json &btb = j.at("btb");
    p.btbMeanMpki = btb.at("meanMpki").asDouble();
    p.btbVsLru = relFromJson(btb.find("vsLru"));
    return p;
}

Json
sweepToJson(const SweepStats &s)
{
    Json j = Json::object();
    j.set("wallSeconds", s.wallSeconds);
    j.set("legs", s.legs);
    j.set("simulatedInstructions", s.simulatedInstructions);
    j.set("jobs", s.jobs);
    j.set("legsPerSec", s.legsPerSec);
    j.set("mInstrPerSec", s.mInstrPerSec);
    Json store = Json::object();
    store.set("enabled", s.traceStoreEnabled);
    store.set("hits", s.traceStoreHits);
    store.set("misses", s.traceStoreMisses);
    store.set("stores", s.traceStoreStores);
    j.set("traceStore", std::move(store));
    return j;
}

SweepStats
sweepFromJson(const Json &j)
{
    SweepStats s;
    s.wallSeconds = j.at("wallSeconds").asDouble();
    s.legs = j.at("legs").asUint();
    s.simulatedInstructions = j.at("simulatedInstructions").asUint();
    s.jobs = static_cast<unsigned>(j.at("jobs").asUint());
    s.legsPerSec = j.at("legsPerSec").asDouble();
    s.mInstrPerSec = j.at("mInstrPerSec").asDouble();
    const Json &store = j.at("traceStore");
    s.traceStoreEnabled = store.at("enabled").asBool();
    s.traceStoreHits = store.at("hits").asUint();
    s.traceStoreMisses = store.at("misses").asUint();
    s.traceStoreStores = store.at("stores").asUint();
    return s;
}

Json
stringPairsToJson(
    const std::vector<std::pair<std::string, std::string>> &pairs)
{
    Json j = Json::object();
    for (const auto &[k, v] : pairs)
        j.set(k, v);
    return j;
}

std::vector<std::pair<std::string, std::string>>
stringPairsFromJson(const Json *j)
{
    std::vector<std::pair<std::string, std::string>> out;
    if (!j)
        return out;
    for (const auto &[k, v] : j->asObject())
        out.emplace_back(k, v.asString());
    return out;
}

} // anonymous namespace

Json
RunReport::toJson() const
{
    Json j = Json::object();
    j.set("schema", kSchemaName);
    Json version = Json::object();
    version.set("major", versionMajor);
    version.set("minor", versionMinor);
    j.set("version", std::move(version));
    j.set("runId", runId);
    j.set("experiment", experiment);
    j.set("createdUnix", createdUnix);
    j.set("build", stringPairsToJson(build));
    j.set("environment", stringPairsToJson(environment));
    j.set("options", options);
    j.set("sweep", sweepToJson(sweep));

    Json policy_array = Json::array();
    for (const PolicySummary &p : policies)
        policy_array.push(policyToJson(p));
    j.set("policies", std::move(policy_array));

    Json leg_array = Json::array();
    for (const Leg &leg : legs)
        leg_array.push(legToJson(leg));
    j.set("legs", std::move(leg_array));

    Json metric_obj = Json::object();
    for (const auto &[name, value] : metrics)
        metric_obj.set(name, value);
    j.set("metrics", std::move(metric_obj));
    if (extras.size() > 0)
        j.set("extras", extras);
    return j;
}

RunReport
RunReport::fromJson(const Json &json)
{
    try {
        const Json *schema = json.find("schema");
        if (!schema || schema->asString() != kSchemaName)
            throw ReportError("not a " + std::string(kSchemaName) +
                              " document");
        const Json &version = json.at("version");
        RunReport report;
        report.versionMajor =
            static_cast<int>(version.at("major").asInt());
        report.versionMinor =
            static_cast<int>(version.at("minor").asInt());
        if (report.versionMajor > kSchemaMajor)
            throw ReportError(
                "unsupported schema major version " +
                std::to_string(report.versionMajor) + " (reader supports " +
                std::to_string(kSchemaMajor) + ")");

        // Every writer emits these; a document without one is
        // truncated, not an empty run.
        for (const char *key : {"sweep", "policies", "legs", "build",
                                "options"})
            if (!json.find(key))
                throw ReportError(std::string("malformed report: no '") +
                                  key + "'");
        report.experiment = json.at("experiment").asString();
        if (const Json *v = json.find("runId"))
            report.runId = v->asString();
        if (const Json *v = json.find("createdUnix"))
            report.createdUnix = v->asInt();
        report.build = stringPairsFromJson(&json.at("build"));
        report.environment = stringPairsFromJson(json.find("environment"));
        report.options = json.at("options");
        report.sweep = sweepFromJson(json.at("sweep"));
        for (const Json &p : json.at("policies").asArray())
            report.policies.push_back(policyFromJson(p));
        for (const Json &leg : json.at("legs").asArray())
            report.legs.push_back(legFromJson(leg));
        if (const Json *v = json.find("metrics"))
            for (const auto &[name, value] : v->asObject())
                report.metrics.emplace_back(name, value.asDouble());
        if (const Json *v = json.find("extras"))
            report.extras = *v;
        return report;
    } catch (const JsonError &e) {
        throw ReportError(std::string("malformed report: ") + e.what());
    }
}

void
RunReport::write(const std::string &path) const
{
    std::ofstream file(path);
    if (!file)
        throw ReportError("cannot open '" + path + "' for writing");
    file << toJson().dump(2) << '\n';
    if (!file)
        throw ReportError("write to '" + path + "' failed");
}

RunReport
RunReport::load(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        throw ReportError("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return fromJson(Json::parse(buffer.str()));
}

ReportBuilder::ReportBuilder(std::string experiment)
{
    report.experiment = std::move(experiment);
}

void
ReportBuilder::setOptions(Json options)
{
    report.options = std::move(options);
}

void
ReportBuilder::addLeg(const std::string &trace, const std::string &label,
                      const frontend::FrontendResult &result,
                      double seconds)
{
    report.legs.push_back(makeLeg(trace, label, result, seconds));
}

void
ReportBuilder::addMetric(std::string name, double value)
{
    report.metrics.emplace_back(std::move(name), value);
}

void
ReportBuilder::addExtra(const std::string &name, Json value)
{
    report.extras.set(name, std::move(value));
}

void
ReportBuilder::setSweep(double wall_seconds, unsigned jobs,
                        std::uint64_t legs_override)
{
    SweepStats &s = report.sweep;
    s.wallSeconds = wall_seconds;
    s.jobs = jobs;
    s.legs = legs_override ? legs_override : report.legs.size();
    s.simulatedInstructions = 0;
    for (const Leg &leg : report.legs)
        s.simulatedInstructions += leg.result.totalInstructions;
    s.legsPerSec = wall_seconds > 0
                       ? static_cast<double>(s.legs) / wall_seconds
                       : 0.0;
    s.mInstrPerSec =
        wall_seconds > 0
            ? static_cast<double>(s.simulatedInstructions) /
                  wall_seconds / 1e6
            : 0.0;
}

RunReport
ReportBuilder::finish()
{
    stamp(report);
    return std::move(report);
}

Leg
makeLeg(const std::string &trace, const std::string &label,
        frontend::FrontendResult result, double seconds)
{
    result.traceName = trace;
    result.policy = label;
    return Leg{std::move(result), seconds};
}

namespace
{

Json
cacheConfigToJson(const cache::CacheConfig &config)
{
    Json j = Json::object();
    j.set("sizeBytes", config.sizeBytes);
    j.set("blockBytes", config.blockBytes);
    j.set("assoc", config.assoc);
    j.set("describe", config.describe());
    return j;
}

} // anonymous namespace

Json
suiteOptionsToJson(const core::SuiteOptions &options)
{
    Json j = Json::object();
    j.set("numTraces", options.numTraces);
    j.set("baseSeed", options.baseSeed);
    j.set("instructionOverride", options.instructionOverride);
    j.set("jobs", options.jobs);
    j.set("fused", options.fused);
    j.set("traceCacheDir", options.traceCacheDir);
    Json policies = Json::array();
    for (const frontend::PolicySpec &policy : options.policies)
        policies.push(frontend::policyName(policy));
    j.set("policies", std::move(policies));
    j.set("icache", cacheConfigToJson(options.base.icache));
    j.set("btb", cacheConfigToJson(options.base.btb));
    j.set("direction", directionName(options.base.direction));
    j.set("warmupFraction", options.base.warmupFraction);
    j.set("warmupCapInstructions", options.base.warmupCapInstructions);
    j.set("useIndirectPredictor", options.base.useIndirectPredictor);
    j.set("nextLinePrefetch", options.base.nextLinePrefetch);
    j.set("ghrpDedicatedBtb", options.base.ghrpDedicatedBtb);
    j.set("recoverGhrpHistory", options.base.recoverGhrpHistory);
    j.set("wrongPathNoise", options.base.wrongPathNoise);
    j.set("instBytes", options.base.instBytes);
    j.set("phaseWindow", options.base.phaseWindow);
    return j;
}

Json
efficiencyMatrixJson(const stats::EfficiencyTracker &tracker)
{
    Json j = Json::object();
    j.set("numSets", tracker.numSets());
    j.set("numWays", tracker.numWays());
    j.set("meanEfficiency", tracker.meanEfficiency());
    Json rows = Json::array();
    for (std::uint32_t set = 0; set < tracker.numSets(); ++set) {
        Json row = Json::array();
        for (std::uint32_t way = 0; way < tracker.numWays(); ++way)
            row.push(tracker.efficiency(set, way));
        rows.push(std::move(row));
    }
    j.set("efficiency", std::move(rows));
    return j;
}

namespace
{

RelToLru
relStats(const std::vector<double> &series, const std::vector<double> &lru)
{
    const std::vector<double> rel =
        core::SuiteResults::relativeDifference(series, lru);
    RelToLru out;
    out.present = true;
    out.traces = rel.size();
    if (!rel.empty()) {
        const stats::ConfidenceInterval ci = stats::meanConfidence(rel);
        out.meanPct = ci.mean * 100.0;
        out.ciHalfWidthPct = ci.halfWidth * 100.0;
    }
    return out;
}

} // anonymous namespace

RunReport
buildSuiteReport(const std::string &experiment,
                 const core::SuiteOptions &options,
                 const core::SuiteResults &results)
{
    ReportBuilder builder(experiment);
    builder.setOptions(suiteOptionsToJson(options));

    // Legs in deterministic (policy, trace) order; the per-leg wall
    // times come from the runner's timing slots.
    for (const auto &[policy, runs] : results.results) {
        const auto &seconds = results.legSeconds.at(policy);
        for (std::size_t i = 0; i < runs.size(); ++i)
            builder.addLeg(results.specs[i].name,
                           frontend::policyName(policy), runs[i],
                           i < seconds.size() ? seconds[i] : 0.0);
    }

    RunReport report = builder.finish();

    const bool has_lru =
        results.results.count(frontend::PolicyKind::Lru) != 0;
    const std::vector<double> lru_icache =
        has_lru ? results.icacheMpki(frontend::PolicyKind::Lru)
                : std::vector<double>{};
    const std::vector<double> lru_btb =
        has_lru ? results.btbMpki(frontend::PolicyKind::Lru)
                : std::vector<double>{};

    for (const frontend::PolicySpec &policy : options.policies) {
        if (!results.results.count(policy))
            continue;
        PolicySummary summary;
        summary.policy = frontend::policyName(policy);
        const std::vector<double> icache = results.icacheMpki(policy);
        const std::vector<double> btb = results.btbMpki(policy);
        summary.icacheMeanMpki = core::SuiteResults::mean(icache);
        summary.btbMeanMpki = core::SuiteResults::mean(btb);
        if (has_lru && policy != frontend::PolicyKind::Lru) {
            summary.icacheVsLru = relStats(icache, lru_icache);
            summary.btbVsLru = relStats(btb, lru_btb);
        }
        report.policies.push_back(std::move(summary));
    }

    SweepStats &sweep = report.sweep;
    sweep.wallSeconds = results.wallSeconds;
    sweep.legs = results.totalLegs();
    sweep.simulatedInstructions = results.simulatedInstructions();
    sweep.jobs = options.jobs ? options.jobs
                              : util::ThreadPool::hardwareJobs();
    // Rates count only the legs this process simulated: legs replayed
    // from a journal took no time here.
    sweep.legsPerSec = sweep.wallSeconds > 0
                           ? static_cast<double>(results.legsRun) /
                                 sweep.wallSeconds
                           : 0.0;
    sweep.mInstrPerSec =
        sweep.wallSeconds > 0
            ? static_cast<double>(results.instructionsRun) /
                  sweep.wallSeconds / 1e6
            : 0.0;
    sweep.traceStoreEnabled = results.traceStoreEnabled;
    sweep.traceStoreHits = results.traceStore.hits;
    sweep.traceStoreMisses = results.traceStore.misses;
    sweep.traceStoreStores = results.traceStore.stores;
    return report;
}

StaticOracle
staticOracle(const RunReport &report)
{
    std::map<std::pair<std::string, std::string>, const Leg *> legs;
    std::set<std::string> duels, seen;
    std::vector<std::string> traces;
    for (const Leg &leg : report.legs) {
        legs.emplace(std::pair(leg.trace(), leg.policy()), &leg);
        if (leg.result.hasDuel)
            duels.insert(leg.policy());
        if (seen.insert(leg.trace()).second)
            traces.push_back(leg.trace());
    }

    StaticOracle oracle;
    for (const PolicySummary &p : report.policies)
        if (!duels.count(p.policy))
            oracle.policies.push_back(p.policy);
    if (oracle.policies.empty())
        return oracle;

    const auto pick = [](StaticOracle::Structure &s,
                         const std::vector<const Leg *> &row,
                         double frontend::FrontendResult::*mpki) {
        std::size_t best = 0;
        for (std::size_t p = 1; p < row.size(); ++p)
            if (row[p]->result.*mpki < row[best]->result.*mpki)
                best = p;
        s.best.push_back(best);
        s.mpki.push_back(row[best]->result.*mpki);
    };
    for (const std::string &trace : traces) {
        std::vector<const Leg *> row;
        for (const std::string &policy : oracle.policies) {
            const auto it = legs.find({trace, policy});
            if (it == legs.end())
                break;
            row.push_back(it->second);
        }
        if (row.size() != oracle.policies.size())
            continue;
        oracle.traces.push_back(trace);
        pick(oracle.icache, row, &frontend::FrontendResult::icacheMpki);
        pick(oracle.btb, row, &frontend::FrontendResult::btbMpki);
    }
    oracle.icache.meanMpki = core::SuiteResults::mean(oracle.icache.mpki);
    oracle.btb.meanMpki = core::SuiteResults::mean(oracle.btb.mpki);
    return oracle;
}

} // namespace ghrp::report

#include "frontend/frontend.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <tuple>
#include <type_traits>

#include "branch/perceptron.hh"
#include "util/logging.hh"

namespace ghrp::frontend
{

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru:
        return "LRU";
      case PolicyKind::Random:
        return "Random";
      case PolicyKind::Fifo:
        return "FIFO";
      case PolicyKind::Srrip:
        return "SRRIP";
      case PolicyKind::Brrip:
        return "BRRIP";
      case PolicyKind::Drrip:
        return "DRRIP";
      case PolicyKind::Sdbp:
        return "SDBP";
      case PolicyKind::Ship:
        return "SHiP";
      case PolicyKind::Ghrp:
        return "GHRP";
      case PolicyKind::Duel:
        return "duel";  // bare kind; specs render via policyName(spec)
    }
    return "unknown";
}

namespace
{

/** Case-insensitive static-kind lookup; false on unknown (or "duel",
 *  which is only valid as a full PolicySpec). */
bool
tryParseKind(const std::string &name, PolicyKind &out)
{
    std::string upper(name);
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    for (PolicyKind kind : allPolicyKinds()) {
        std::string candidate(policyName(kind));
        std::transform(candidate.begin(), candidate.end(),
                       candidate.begin(),
                       [](unsigned char c) { return std::toupper(c); });
        if (upper == candidate) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // anonymous namespace

PolicyKind
parsePolicy(const std::string &name)
{
    PolicyKind kind;
    if (!tryParseKind(name, kind))
        fatal("unknown replacement policy '%s'", name.c_str());
    return kind;
}

const std::vector<PolicyKind> &
allPolicyKinds()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Lru,   PolicyKind::Random, PolicyKind::Fifo,
        PolicyKind::Srrip, PolicyKind::Brrip,  PolicyKind::Drrip,
        PolicyKind::Sdbp,  PolicyKind::Ship,   PolicyKind::Ghrp};
    return kinds;
}

namespace
{

/** Normalized comparison key: non-duel specs ignore the duel fields,
 *  so PolicySpec(kind) equals any spec of the same kind. */
std::tuple<int, int, int, std::uint32_t, std::uint32_t>
specKey(const PolicySpec &s)
{
    const bool d = s.isDuel();
    return {static_cast<int>(s.kind),
            d ? static_cast<int>(s.duelA) : 0,
            d ? static_cast<int>(s.duelB) : 0, d ? s.duelPselMax : 0,
            d ? s.duelLeaders : 0};
}

} // anonymous namespace

bool
operator==(const PolicySpec &a, const PolicySpec &b)
{
    return specKey(a) == specKey(b);
}

bool
operator<(const PolicySpec &a, const PolicySpec &b)
{
    return specKey(a) < specKey(b);
}

std::string
policyName(const PolicySpec &spec)
{
    if (!spec.isDuel())
        return policyName(spec.kind);
    const PolicySpec defaults;
    std::string out = std::string("duel:") + policyName(spec.duelA) +
                      "," + policyName(spec.duelB);
    if (spec.duelPselMax != defaults.duelPselMax)
        out += ",psel=" + std::to_string(spec.duelPselMax);
    if (spec.duelLeaders != defaults.duelLeaders)
        out += ",leaders=" + std::to_string(spec.duelLeaders);
    return out;
}

bool
tryParsePolicySpec(const std::string &name, PolicySpec &out)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower.rfind("duel:", 0) != 0) {
        PolicyKind kind;
        if (!tryParseKind(name, kind))
            return false;
        out = PolicySpec(kind);
        return true;
    }

    // duel:<A>,<B>[,psel=N][,leaders=K]
    std::vector<std::string> tokens;
    std::string rest = name.substr(5);
    std::size_t begin = 0;
    while (begin <= rest.size()) {
        const std::size_t comma = rest.find(',', begin);
        tokens.push_back(rest.substr(
            begin, comma == std::string::npos ? comma : comma - begin));
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    if (tokens.size() < 2)
        return false;

    PolicySpec spec;
    spec.kind = PolicyKind::Duel;
    if (!tryParseKind(tokens[0], spec.duelA) ||
        !tryParseKind(tokens[1], spec.duelB))
        return false;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key(tokens[i]);
        std::transform(key.begin(), key.end(), key.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        const std::size_t eq = key.find('=');
        if (eq == std::string::npos)
            return false;
        const char *value = key.data() + eq + 1;
        const char *end = key.data() + key.size();
        std::uint32_t parsed = 0;
        const auto [ptr, ec] = std::from_chars(value, end, parsed);
        if (ec != std::errc() || ptr != end || parsed == 0 ||
            parsed > 1u << 20)
            return false;
        if (key.compare(0, eq, "psel") == 0)
            spec.duelPselMax = parsed;
        else if (key.compare(0, eq, "leaders") == 0)
            spec.duelLeaders = parsed;
        else
            return false;
    }
    out = spec;
    return true;
}

PolicySpec
parsePolicySpec(const std::string &name)
{
    PolicySpec spec;
    if (!tryParsePolicySpec(name, spec))
        fatal("unknown replacement policy '%s' (expected a policy name "
              "or duel:<A>,<B>[,psel=N][,leaders=K])",
              name.c_str());
    return spec;
}

std::vector<PolicySpec>
parsePolicyList(const std::string &csv)
{
    std::vector<std::string> tokens;
    std::size_t begin = 0;
    while (begin <= csv.size()) {
        const std::size_t comma = csv.find(',', begin);
        std::string token = csv.substr(
            begin, comma == std::string::npos ? comma : comma - begin);
        const std::size_t first = token.find_first_not_of(" \t");
        if (first == std::string::npos) {
            token.clear();
        } else {
            const std::size_t last = token.find_last_not_of(" \t");
            token = token.substr(first, last - first + 1);
        }
        if (!token.empty())
            tokens.push_back(std::move(token));
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }

    const auto isLowerPrefix = [](const std::string &token,
                                  const char *prefix) {
        std::string lower(token);
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        return lower.rfind(prefix, 0) == 0;
    };

    std::vector<PolicySpec> out;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (!isLowerPrefix(tokens[i], "duel:")) {
            out.push_back(parsePolicySpec(tokens[i]));
            continue;
        }
        // A duel spec spans commas: rejoin its second constituent and
        // any psel=/leaders= parameters before parsing.
        std::string spec = tokens[i];
        if (i + 1 < tokens.size())
            spec += "," + tokens[++i];
        while (i + 1 < tokens.size() &&
               (isLowerPrefix(tokens[i + 1], "psel=") ||
                isLowerPrefix(tokens[i + 1], "leaders=")))
            spec += "," + tokens[++i];
        out.push_back(parsePolicySpec(spec));
    }
    return out;
}

namespace
{

std::unique_ptr<branch::DirectionPredictor>
makeDirection(DirectionKind kind)
{
    switch (kind) {
      case DirectionKind::HashedPerceptron:
        return std::make_unique<branch::HashedPerceptron>();
      case DirectionKind::Gshare:
        return std::make_unique<branch::GsharePredictor>();
      case DirectionKind::Bimodal:
        return std::make_unique<branch::BimodalPredictor>();
    }
    panic("unknown direction predictor kind");
}

} // anonymous namespace

FrontendSim::FrontendSim(const FrontendConfig &config) : cfg(config)
{
    // One shared dead-block predictor whenever GHRP participates,
    // whether as the whole policy or as one duel constituent.
    if (cfg.policy.involvesGhrp())
        ghrpPredictor =
            std::make_unique<predictor::GhrpPredictor>(cfg.ghrp);

    if (cfg.trackEfficiency) {
        icacheEff = std::make_unique<stats::EfficiencyTracker>(
            cfg.icache.numSets(), cfg.icache.assoc);
        btbEff = std::make_unique<stats::EfficiencyTracker>(
            cfg.btb.numSets(), cfg.btb.assoc);
    }

    // The lane's policy types are picked here, once; from then on the
    // step loop calls every hook directly.
    lane = withLanePolicies(
        cfg.policy.kind, cfg.ghrpDedicatedBtb,
        [&]<typename IcachePolicy,
            typename BtbPolicy>() -> std::unique_ptr<LaneBase> {
            return std::make_unique<Lane<IcachePolicy, BtbPolicy>>(*this);
        });

    if (cfg.useIndirectPredictor)
        indirect = std::make_unique<branch::IndirectPredictor>();
}

template <typename Policy>
std::unique_ptr<Policy>
FrontendSim::makePolicy(Structure structure,
                        const cache::TagStore *icache_tags)
{
    if constexpr (std::is_same_v<Policy, cache::RandomPolicy>) {
        // I-cache and BTB policies (duel constituents included) use one
        // instance seed per structure, so duel:X,X is bit-identical to
        // plain X for every self-contained policy.
        return std::make_unique<Policy>(
            structure == Structure::Icache ? 0x1CACE : 0xB7B);
    } else if constexpr (std::is_same_v<Policy,
                                        predictor::SdbpReplacement>) {
        return std::make_unique<Policy>(cfg.sdbp);
    } else if constexpr (std::is_same_v<Policy,
                                        predictor::GhrpReplacement>) {
        auto policy = std::make_unique<Policy>(*ghrpPredictor);
        // With two GHRP constituents the BTB reads the first one's
        // signatures.
        if (!icacheGhrp)
            icacheGhrp = policy.get();
        return policy;
    } else if constexpr (std::is_same_v<Policy,
                                        predictor::GhrpBtbReplacement>) {
        // The paper's shared-metadata coupling to the I-cache GHRP,
        // which exists by now (the I-cache is built first).
        return std::make_unique<Policy>(*ghrpPredictor, *icacheGhrp,
                                        *icache_tags);
    } else if constexpr (std::is_same_v<Policy,
                                        predictor::GhrpBtbDedicated>) {
        return std::make_unique<Policy>(cfg.ghrp);
    } else if constexpr (std::is_same_v<Policy, cache::DuelPolicy>) {
        // Constituents run behind the virtual interface; each is the
        // policy a plain lane of its kind would build for this
        // structure, A first.
        const auto constituent =
            [&](PolicyKind kind) -> std::unique_ptr<cache::ReplacementPolicy> {
            return withLanePolicies(
                kind, cfg.ghrpDedicatedBtb,
                [&]<typename IcachePolicy, typename BtbPolicy>()
                    -> std::unique_ptr<cache::ReplacementPolicy> {
                    if constexpr (std::is_same_v<IcachePolicy,
                                                 cache::DuelPolicy>)
                        panic("a duel constituent cannot be a duel");
                    else if (structure == Structure::Icache)
                        return makePolicy<IcachePolicy>(structure,
                                                        icache_tags);
                    else
                        return makePolicy<BtbPolicy>(structure,
                                                     icache_tags);
                });
        };
        auto a = constituent(cfg.policy.duelA);
        auto b = constituent(cfg.policy.duelB);
        auto duel = std::make_unique<cache::DuelPolicy>(
            std::move(a), std::move(b),
            cache::DuelPolicy::Params{
                static_cast<std::int64_t>(cfg.policy.duelPselMax),
                cfg.policy.duelLeaders},
            policyName(cfg.policy));
        (structure == Structure::Icache ? icacheDuel : btbDuel) =
            duel.get();
        return duel;
    } else {
        return std::make_unique<Policy>();
    }
}

template <typename IcachePolicy, typename BtbPolicy>
FrontendSim::Lane<IcachePolicy, BtbPolicy>::Lane(FrontendSim &sim)
    : icache(sim.cfg.icache,
             sim.makePolicy<IcachePolicy>(Structure::Icache, nullptr)),
      btb(sim.cfg.btb, sim.makePolicy<BtbPolicy>(Structure::Btb, &icache))
{
    icache.attachTracker(sim.icacheEff.get());
    btb.cacheModel().attachTracker(sim.btbEff.get());
}

FrontendSim::~FrontendSim() = default;

cache::ReplacementPolicy &
FrontendSim::icachePolicy()
{
    return visitStructures(
        [](auto &icache, auto &) -> cache::ReplacementPolicy & {
            return icache.policy();
        });
}

cache::ReplacementPolicy &
FrontendSim::btbPolicy()
{
    return visitStructures(
        [](auto &, auto &btb) -> cache::ReplacementPolicy & {
            return btb.cacheModel().policy();
        });
}

namespace
{

/** Phase-record ring capacity, matching the duel PSEL trajectory:
 *  beyond it adjacent records merge pairwise and the stride doubles,
 *  keeping the buffer bounded while staying a deterministic function
 *  of the access stream. */
constexpr std::size_t kPhaseCapacity = kPhaseTrajectoryCapacity;

/** into += from - base over the interval counters (identity fields —
 *  window id, instruction count, PSEL — are NOT touched). */
void
addPhaseDelta(PhaseRecord &into, const PhaseRecord &from,
              const PhaseRecord &base = PhaseRecord{})
{
    PhaseRecord::forEachCounter([&](const char *, auto member) {
        into.*member += from.*member - base.*member;
    });
}

} // anonymous namespace

void
FrontendSim::phaseCapture(PhaseRecord &out)
{
    cache::PredictionOutcomes oi, ob;
    visitStructures([&](auto &icache, auto &btb) {
        const stats::AccessStats &ic = icache.accessStats();
        const stats::AccessStats &bt = btb.accessStats();
        out.icacheAccesses = ic.accesses;
        out.icacheMisses = ic.misses;
        out.icacheEvictions = ic.evictions;
        out.btbAccesses = bt.accesses;
        out.btbMisses = bt.misses;
        out.btbEvictions = bt.evictions;
        oi = icache.policy().predictionOutcomes();
        ob = btb.cacheModel().policy().predictionOutcomes();
    });
    out.condBranches = pending.condBranches;
    out.condMispredicts = pending.condMispredicts;
    out.btbTargetMismatches = pending.btbTargetMismatches;
    out.deadHits = oi.deadHits + ob.deadHits;
    out.liveHits = oi.liveHits + ob.liveHits;
    out.deadEvictions = oi.deadEvictions + ob.deadEvictions;
    out.liveEvictions = oi.liveEvictions + ob.liveEvictions;
}

void
FrontendSim::phaseSample(std::uint64_t cum)
{
    PhaseRecord cur;
    phaseCapture(cur);
    addPhaseDelta(phasePending, cur, phaseSnapshot);
    phaseSnapshot = cur;
    phasePending.window = phaseWindowId;
    phasePending.instructions = cum;
    phasePending.psel = icacheDuel ? icacheDuel->psel() : 0;

    if (++phasePendingCount < phaseStride)
        return;
    phaseRecords.push_back(phasePending);
    phasePending = PhaseRecord{};
    phasePendingCount = 0;
    if (phaseRecords.size() > kPhaseCapacity) {
        // Decimate: the odd record out returns to the accumulator (it
        // covers exactly half the doubled stride), then adjacent pairs
        // merge in place — counters summed, the later record's
        // identity kept — preserving the full time span.
        phasePending = phaseRecords.back();
        phaseRecords.pop_back();
        phasePendingCount = phaseStride;
        std::size_t w = 0;
        for (std::size_t r = 0; r + 1 < phaseRecords.size(); r += 2) {
            PhaseRecord merged = phaseRecords[r + 1];
            addPhaseDelta(merged, phaseRecords[r]);
            phaseRecords[w++] = merged;
        }
        phaseRecords.resize(w);
        phaseStride *= 2;
    }
}

FrontendResult
FrontendSim::run(const trace::DecodedTrace &dec)
{
    beginRun(dec);
    stepRecords(dec, 0, dec.numRecords());
    return finishRun();
}

void
FrontendSim::stepRecords(const trace::DecodedTrace &dec, std::size_t begin,
                         std::size_t end)
{
    lane->step(*this, dec, begin, end);
}

std::uint64_t
FrontendSim::warmupPoint(std::uint64_t total) const
{
    return std::min<std::uint64_t>(
        static_cast<std::uint64_t>(cfg.warmupFraction *
                                   static_cast<double>(total)),
        cfg.warmupCapInstructions);
}

void
FrontendSim::beginRun(const trace::DecodedTrace &dec)
{
    beginRun(dec, dec.totalInstructions(), dec.totalInstructions());
}

void
FrontendSim::beginRun(const trace::DecodedTrace &dec,
                      std::uint64_t min_total, std::uint64_t max_total)
{
    // The decoded stream bakes in the fetch granularity; a mismatched
    // configuration would silently simulate the wrong block stream.
    GHRP_ASSERT(dec.blockBytes == cfg.icache.blockBytes);
    GHRP_ASSERT(dec.instBytes == cfg.instBytes);
    GHRP_ASSERT(min_total <= max_total);

    pending = FrontendResult{};
    pending.traceName = dec.name;
    pending.policy = policyName(cfg.policy);
    pendingCursor = dec.fetchCursor();

    // The warm-up point is monotone in the total, so every candidate
    // lies in [warmupPoint(min), warmupPoint(max)]. A zero point
    // excludes nothing and needs no snapshot.
    warmupMinTotal = min_total;
    warmupMaxTotal = max_total;
    warmupSnapshots.clear();
    warmupSnapTo = warmupPoint(max_total);
    warmupSnapFrom =
        warmupSnapTo == 0
            ? ~std::uint64_t{0}
            : std::max<std::uint64_t>(warmupPoint(min_total), 1);

    // Arm the phase flight recorder; a saturated boundary keeps the
    // per-record check to one always-false compare when it is off.
    phaseRecords.clear();
    phasePending = PhaseRecord{};
    phaseSnapshot = PhaseRecord{};
    phasePendingCount = 0;
    phaseStride = 1;
    phaseWindowId = 0;
    phaseNextBoundary =
        cfg.phaseWindow == 0 ? ~std::uint64_t{0} : cfg.phaseWindow;

    // The direction predictor runs once per trace, in a
    // DirectionResolver; every leg reads its outcomes.
    if (!dec.hasDirectionStream() ||
        dec.directionKind != static_cast<int>(cfg.direction))
        panic("%s: the stream is not resolved with this leg's direction "
              "predictor (stream kind %d, leg kind %d)",
              dec.name.c_str(), dec.directionKind,
              static_cast<int>(cfg.direction));
}

void
FrontendSim::warmupSnapshot(std::uint64_t cum)
{
    FrontendResult snap;
    snap.warmupInstructions = cum;
    visitStructures([&](auto &icache, auto &btb) {
        snap.icache = icache.accessStats();
        snap.btb = btb.accessStats();
    });
    FrontendResult::forEachBranchCounter(
        [&](const char *, auto member) { snap.*member = pending.*member; });
    warmupSnapshots.push_back(snap);
    // The first record to reach the largest candidate point is the
    // last candidate record.
    if (cum >= warmupSnapTo)
        warmupSnapFrom = ~std::uint64_t{0};
}

template <typename Icache, typename BtbModel>
void
FrontendSim::stepLoop(Icache &icache, BtbModel &btb,
                      const trace::DecodedTrace &dec, std::size_t begin,
                      std::size_t end)
{
    FrontendResult &result = pending;
    predictor::GhrpPredictor *const ghrp = ghrpPredictor.get();
    for (std::size_t i = begin; i < end; ++i) {
        const Addr pc = dec.brPc[i];
        const Addr target = dec.brTarget[i];
        const std::uint8_t meta = dec.brMeta[i];
        const bool taken = trace::branch_meta::taken(meta);

        // ---- fetch ops of the run ending at this branch ------------
        // The cursor applies fetch-buffer coalescing; every op it
        // visits is a real I-cache access.
        pendingCursor.advance(pc, target, taken, [&](Addr block_addr,
                                                     Addr fetch_pc) {
            const cache::AccessOutcome out =
                icache.access(block_addr, fetch_pc);
            if (!out.hit && cfg.nextLinePrefetch > 0) {
                for (std::uint32_t p = 1; p <= cfg.nextLinePrefetch; ++p)
                    icache.prefetch(
                        block_addr +
                            static_cast<Addr>(p) * cfg.icache.blockBytes,
                        fetch_pc);
            }
            if (ghrp) {
                // The fetch-address stream updates both the
                // speculative and the retired path history; in a
                // trace-driven model fetch and commit coincide.
                ghrp->updateSpecHistory(fetch_pc);
                ghrp->updateRetiredHistory(fetch_pc);
            }
        });

        // ---- direction prediction ----------------------------------
        if (trace::branch_meta::conditional(meta)) {
            ++result.condBranches;
            const bool predicted = dec.dirPredictedTaken[i] != 0;
            const bool mispredicted = predicted != taken;
            if (mispredicted)
                ++result.condMispredicts;

            if (mispredicted && ghrp) {
                // Model wrong-path pollution of the speculative
                // history and its recovery from the retired history.
                const Addr wrong_base =
                    predicted ? target : pc + cfg.instBytes;
                for (std::uint32_t w = 0; w < cfg.wrongPathNoise; ++w)
                    ghrp->updateSpecHistory(
                        wrong_base +
                        static_cast<Addr>(w) * cfg.instBytes);
                if (cfg.recoverGhrpHistory)
                    ghrp->recoverHistory();
            }
        }

        // ---- BTB and RAS -------------------------------------------
        if (taken) {
            if (trace::branch_meta::isReturn(meta)) {
                ++result.rasReturns;
                if (ras.pop() != target)
                    ++result.rasMispredicts;
            } else {
                // Indirect target prediction: the indirect predictor
                // (when attached) overrides the BTB's last-seen target.
                if (trace::branch_meta::indirect(meta)) {
                    ++result.indirectBranches;
                    std::optional<Addr> predicted;
                    if (indirect)
                        predicted = indirect->predict(pc);
                    if (!predicted)
                        predicted = btb.predictTarget(pc);
                    if (!predicted || *predicted != target)
                        ++result.indirectMispredicts;
                    if (indirect)
                        indirect->update(pc, target);
                }
                const branch::BtbResult br = btb.accessTaken(pc, target);
                if (br.hit && !br.targetMatched)
                    ++result.btbTargetMismatches;
            }
        }
        if (trace::branch_meta::call(meta) && taken)
            ras.push(pc + cfg.instBytes);

        // ---- warm-up boundary candidates ------------------------
        const std::uint64_t cum = pendingCursor.instructionCount();
        if (cum >= warmupSnapFrom)
            warmupSnapshot(cum);

        // ---- phase flight recorder ------------------------------
        if (cum >= phaseNextBoundary) {
            phaseSample(cum);
            do {
                phaseNextBoundary += cfg.phaseWindow;
                ++phaseWindowId;
            } while (cum >= phaseNextBoundary);
        }
    }
}

FrontendResult
FrontendSim::finishRun()
{
    FrontendResult result = std::move(pending);
    pending = FrontendResult{};
    result.totalInstructions = pendingCursor.instructionCount();
    // Outside its declared bounds a stream may have passed its warm-up
    // record unsnapshotted: fail rather than return wrong counters.
    if (result.totalInstructions < warmupMinTotal ||
        result.totalInstructions > warmupMaxTotal)
        panic("%s: %llu instructions, outside the stream's declared "
              "bounds [%llu, %llu]",
              result.traceName.c_str(),
              static_cast<unsigned long long>(result.totalInstructions),
              static_cast<unsigned long long>(warmupMinTotal),
              static_cast<unsigned long long>(warmupMaxTotal));
    result.warmupInstructions = warmupPoint(result.totalInstructions);

    // The warm-up record is the first to reach the warm-up point; with
    // a zero point (or one past the total) nothing is excluded.
    FrontendResult base;
    if (result.warmupInstructions > 0) {
        for (const FrontendResult &snap : warmupSnapshots) {
            if (snap.warmupInstructions >= result.warmupInstructions) {
                base = snap;
                break;
            }
        }
    }
    warmupSnapshots.clear();
    return harvest(std::move(result), base);
}

FrontendResult
FrontendSim::harvest(FrontendResult result, const FrontendResult &base)
{
    result.measuredInstructions =
        result.totalInstructions >= result.warmupInstructions
            ? result.totalInstructions - result.warmupInstructions
            : 0;
    visitStructures([&](auto &icache, auto &btb) {
        result.icache = icache.accessStats();
        result.btb = btb.accessStats();
        // Seal the attached heat-map trackers at the structures' ticks.
        if (icacheEff)
            icacheEff->finalize(icache.ticks());
        if (btbEff)
            btbEff->finalize(btb.cacheModel().ticks());
    });
    stats::AccessStats::forEachField([&](const char *, auto member) {
        result.icache.*member -= base.icache.*member;
        result.btb.*member -= base.btb.*member;
    });
    FrontendResult::forEachBranchCounter(
        [&](const char *, auto member) { result.*member -= base.*member; });
    result.icacheMpki = result.icache.mpki(result.measuredInstructions);
    result.btbMpki = result.btb.mpki(result.measuredInstructions);

    if (icacheDuel) {
        result.hasDuel = true;
        result.icacheDuel = icacheDuel->telemetry();
    }
    if (btbDuel)
        result.btbDuel = btbDuel->telemetry();

    if (cfg.phaseWindow > 0) {
        // Only complete windows are committed — a trailing partial
        // window would make the trajectory depend on where the trace
        // happens to end rather than on the configured cadence.
        result.hasPhases = true;
        result.phases.window = cfg.phaseWindow;
        result.phases.stride = phaseStride;
        result.phases.records = std::move(phaseRecords);
        phaseRecords.clear();
    }

    return result;
}

FrontendResult
FrontendSim::run(const trace::Trace &tr)
{
    trace::DecodedTrace dec =
        trace::decodeTrace(tr, cfg.icache.blockBytes, cfg.instBytes);
    resolveDirectionStream(dec, cfg.direction);
    return run(dec);
}

FrontendResult
simulateTrace(const FrontendConfig &config, const trace::Trace &tr)
{
    FrontendSim sim(config);
    return sim.run(tr);
}

FrontendResult
simulateDecoded(const FrontendConfig &config,
                const trace::DecodedTrace &decoded)
{
    FrontendSim sim(config);
    return sim.run(decoded);
}

namespace
{

/** Feed @p direction exactly the sequence a leg would: predict then
 *  update, conditional branches only. */
template <typename Predictor>
void
resolveWith(Predictor &direction, trace::DecodedTrace &dec)
{
    const std::size_t n = dec.numRecords();
    dec.dirPredictedTaken.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t meta = dec.brMeta[i];
        if (!trace::branch_meta::conditional(meta))
            continue;
        dec.dirPredictedTaken[i] = direction.predict(dec.brPc[i]) ? 1 : 0;
        direction.update(dec.brPc[i], trace::branch_meta::taken(meta));
    }
}

} // anonymous namespace

DirectionResolver::DirectionResolver(DirectionKind kind)
    : kind(kind), direction(makeDirection(kind))
{
}

DirectionResolver::~DirectionResolver() = default;

void
DirectionResolver::resolve(trace::DecodedTrace &dec)
{
    // The paper's predictor is called through its final type, so the
    // loop inlines it instead of dispatching twice per conditional.
    if (auto *perceptron =
            dynamic_cast<branch::HashedPerceptron *>(direction.get()))
        resolveWith(*perceptron, dec);
    else
        resolveWith(*direction, dec);
    dec.directionKind = static_cast<int>(kind);
}

void
resolveDirectionStream(trace::DecodedTrace &dec, DirectionKind kind)
{
    DirectionResolver(kind).resolve(dec);
}

} // namespace ghrp::frontend

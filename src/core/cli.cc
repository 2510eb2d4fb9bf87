#include "core/cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "util/logging.hh"

namespace ghrp::core
{

CliOptions::CliOptions(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg(argv[i]);
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '%s' (flags start with --)",
                  arg.c_str());
        arg = arg.substr(2);

        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            values[arg.substr(0, eq)] = arg.substr(eq + 1);
            continue;
        }
        if (i + 1 < argc && argv[i + 1][0] != '-') {
            values[arg] = argv[i + 1];
            ++i;
        } else {
            values[arg] = "";  // bare boolean flag
        }
    }
}

std::uint64_t
CliOptions::getUint(const std::string &name,
                    std::uint64_t default_value) const
{
    const auto it = values.find(name);
    if (it == values.end())
        return default_value;
    if (it->second.empty())
        fatal("flag --%s requires a value", name.c_str());
    const std::optional<std::uint64_t> value = parseUint(it->second);
    if (!value)
        fatal("flag --%s expects an unsigned integer, got '%s'",
              name.c_str(), it->second.c_str());
    return *value;
}

double
CliOptions::getDouble(const std::string &name, double default_value) const
{
    const auto it = values.find(name);
    if (it == values.end())
        return default_value;
    if (it->second.empty())
        fatal("flag --%s requires a value", name.c_str());
    const std::optional<double> value = parseDouble(it->second);
    if (!value)
        fatal("flag --%s expects a number, got '%s'", name.c_str(),
              it->second.c_str());
    return *value;
}

std::string
CliOptions::getString(const std::string &name,
                      const std::string &default_value) const
{
    const auto it = values.find(name);
    if (it == values.end())
        return default_value;
    if (it->second.empty())
        fatal("flag --%s requires a value", name.c_str());
    return it->second;
}

bool
CliOptions::has(const std::string &name) const
{
    return values.count(name) != 0;
}

unsigned
CliOptions::jobs() const
{
    const std::uint64_t jobs = getUint("jobs", 0);
    if (jobs > kMaxJobs)
        fatal("flag --jobs expects at most %u worker threads, got %llu",
              kMaxJobs, static_cast<unsigned long long>(jobs));
    return static_cast<unsigned>(jobs);
}

void
CliOptions::requireKnownFlags() const
{
    const std::vector<CliFlag> &known = knownCliFlags();
    for (const auto &entry : values) {
        const std::string &name = entry.first;
        if (std::none_of(known.begin(), known.end(),
                         [&](const CliFlag &f) { return f.name == name; }))
            fatal("unknown flag --%s", name.c_str());
    }
}

std::optional<std::uint64_t>
parseUint(const std::string &text)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

std::optional<double>
parseDouble(const std::string &text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

const std::vector<CliFlag> &
knownCliFlags()
{
    static const std::vector<CliFlag> flags = {
        {"traces", "suite size (number of synthetic traces)"},
        {"instructions", "per-trace dynamic instruction override"},
        {"seed", "suite base seed"},
        {"jobs",
         "sweep worker threads (0 = hardware concurrency, 1 = serial, "
         "at most 256)"},
        {"fused",
         "fuse all policy legs of a trace into one walk of its decoded "
         "stream; results are bit-identical"},
        {"trace-cache",
         "content-addressed trace store directory"},
        {"leg-times", "print the per-leg wall-time table"},
        {"log-level",
         "verbosity: quiet|warn|info (warn suppresses progress and "
         "throughput reporting)"},
        {"slow-leg-ms",
         "warn about (trace, policy) legs slower than N milliseconds"},
        {"report",
         "write a versioned JSON run report to FILE"},
        {"journal",
         "crash resume: journal every finished leg to FILE and skip the "
         "legs FILE already holds for the same sweep"},
        {"kb", "I-cache size in KiB"},
        {"assoc", "I-cache associativity"},
        {"btb-entries", "BTB entry count"},
        {"btb-assoc", "BTB associativity"},
        {"policy",
         "replacement policy: a name (LRU, SRRIP, GHRP, ...) or a "
         "set-dueling spec duel:<A>,<B>[,psel=N][,leaders=K]"},
        {"category", "workload category for single-trace tools"},
        {"tolerance", "win/similar/worse relative tolerance"},
        {"generate", "trace-tool mode: generate a trace file"},
        {"replay", "trace-tool mode: replay a trace file"},
        {"info", "trace-tool mode: print trace metadata"},
        {"duel",
         "append a duel:<A>,<B> set-dueling leg to the suite's "
         "policy axis (bench suites)"},
        {"phase-window",
         "phase flight recorder: sample a windowed telemetry record "
         "every N instructions (0 = off)"},
    };
    return flags;
}

void
applyLogLevel(const CliOptions &cli)
{
    const std::string name = cli.getString("log-level", "");
    if (name.empty())
        return;
    LogLevel level;
    if (!parseLogLevel(name, level))
        fatal("unknown log level '%s' (expected quiet|warn|info)",
              name.c_str());
    setLogLevel(level);
}

} // namespace ghrp::core

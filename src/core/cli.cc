#include "core/cli.hh"

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

        std::string name = arg;
        std::string value;  // "" = bare boolean flag
        if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            value = argv[++i];
        }
        values[name] = value;
        given.push_back(name);
    }
}

const std::string *
CliOptions::find(const std::string &name) const
{
    read.insert(name);
    const auto it = values.find(name);
    return it == values.end() ? nullptr : &it->second;
}

const std::string *
CliOptions::findValue(const std::string &name) const
{
    const std::string *value = find(name);
    if (value && value->empty())
        fatal("flag --%s requires a value", name.c_str());
    return value;
}

std::uint64_t
CliOptions::getUint(const std::string &name,
                    std::uint64_t default_value) const
{
    const std::string *text = findValue(name);
    if (!text)
        return default_value;
    const std::optional<std::uint64_t> value = parseUint(*text);
    if (!value)
        fatal("flag --%s expects an unsigned integer, got '%s'",
              name.c_str(), text->c_str());
    return *value;
}

double
CliOptions::getDouble(const std::string &name, double default_value) const
{
    const std::string *text = findValue(name);
    if (!text)
        return default_value;
    const std::optional<double> value = parseDouble(*text);
    if (!value)
        fatal("flag --%s expects a number, got '%s'", name.c_str(),
              text->c_str());
    return *value;
}

std::string
CliOptions::getString(const std::string &name,
                      const std::string &default_value) const
{
    const std::string *text = findValue(name);
    return text ? *text : default_value;
}

bool
CliOptions::has(const std::string &name) const
{
    const std::string *value = find(name);
    if (value && !value->empty())
        fatal("flag --%s takes no value, got '%s'", name.c_str(),
              value->c_str());
    return value != nullptr;
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
CliOptions::rejectUnreadFlags() const
{
    for (const std::string &name : given)
        if (!read.count(name))
            fatal("unknown flag --%s: this binary does not read it",
                  name.c_str());
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

/**
 * @file
 * Implementation of the RunReport renderer.
 */

#include "report.hh"

#include <cstdio>
#include <sstream>

namespace transfusion::obs
{

std::string
formatMetricValue(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

RunReport
RunReport::capture(const Registry &reg)
{
    return fromSnapshot(reg.snapshot());
}

RunReport
RunReport::fromSnapshot(const RegistrySnapshot &snap)
{
    RunReport report;
    // Group prefixes ("counter" < "gauge" < "peak" < "timer") and
    // the sorted maps inside each group keep the whole entry list
    // lexicographically sorted without an explicit sort.
    for (const auto &[name, v] : snap.counters)
        report.entries_.emplace_back("counter/" + name,
                                     std::to_string(v));
    for (const auto &[name, v] : snap.gauges)
        report.entries_.emplace_back("gauge/" + name,
                                     formatMetricValue(v));
    for (const auto &[name, v] : snap.peaks)
        report.entries_.emplace_back("peak/" + name,
                                     formatMetricValue(v));
    // Wall-clock durations are nondeterministic; only the sample
    // count (a pure function of the instrumented control flow) is
    // fit for golden comparison.
    for (const auto &[name, t] : snap.timers)
        report.entries_.emplace_back("timer/" + name + "/count",
                                     std::to_string(t.count()));
    return report;
}

std::string
RunReport::toString() const
{
    std::ostringstream os;
    writeTo(os);
    return os.str();
}

void
RunReport::writeTo(std::ostream &os) const
{
    for (const auto &[key, value] : entries_)
        os << key << " = " << value << "\n";
}

void
RunReport::writeCsv(std::ostream &os) const
{
    os << "kind,name,value\n";
    for (const auto &[key, value] : entries_) {
        const std::size_t slash = key.find('/');
        os << key.substr(0, slash) << ","
           << (slash == std::string::npos
                   ? ""
                   : key.substr(slash + 1))
           << "," << value << "\n";
    }
}

std::string
RunReport::diff(const std::string &expected,
                const std::string &actual)
{
    if (expected == actual)
        return "";
    std::istringstream want(expected), got(actual);
    std::ostringstream out;
    std::string w, g;
    int line = 0, shown = 0;
    while (true) {
        const bool have_w = static_cast<bool>(std::getline(want, w));
        const bool have_g = static_cast<bool>(std::getline(got, g));
        if (!have_w && !have_g)
            break;
        ++line;
        if (have_w && have_g && w == g)
            continue;
        out << "line " << line << ":\n"
            << "  expected: " << (have_w ? w : "<eof>") << "\n"
            << "  actual:   " << (have_g ? g : "<eof>") << "\n";
        if (++shown >= 20) {
            out << "  ... (further differences elided)\n";
            break;
        }
    }
    return out.str();
}

} // namespace transfusion::obs

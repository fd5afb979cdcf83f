#include "trng/registry.hh"

#include <map>
#include <stdexcept>
#include <utility>

#include "sim/fault.hh"

namespace drange::trng {

namespace detail {
// Defined in sources.cc. Calling it from the registry's own
// implementation file forces the built-in sources' object file (and
// with it their static self-registrations) into the link even from a
// static library, where unreferenced objects are otherwise dropped.
void linkBuiltinSources();
} // namespace detail

namespace {

struct Entry
{
    std::string description;
    Registry::Factory factory;
};

std::map<std::string, Entry> &
entries()
{
    static std::map<std::string, Entry> map;
    return map;
}

void
ensureBuiltins()
{
    detail::linkBuiltinSources();
}

std::string
knownNames()
{
    // Built on the public names() enumeration so the error message can
    // never drift from what callers iterating Registry::names() see.
    std::string known;
    for (const std::string &name : Registry::names()) {
        if (!known.empty())
            known += ", ";
        known += "\"" + name + "\"";
    }
    return known;
}

} // anonymous namespace

bool
Registry::add(const std::string &name, const std::string &description,
              Factory factory)
{
    if (!factory)
        throw std::invalid_argument("Registry: null factory for \"" +
                                    name + "\"");
    return entries()
        .emplace(name, Entry{description, std::move(factory)})
        .second;
}

std::unique_ptr<EntropySource>
Registry::make(const std::string &name, const Params &params)
{
    ensureBuiltins();
    const auto it = entries().find(name);
    if (it == entries().end())
        throw std::invalid_argument(
            "Registry: unknown entropy source \"" + name +
            "\" (registered: " + knownNames() + ")");
    // A `faults.*` section wraps any source in the deterministic fault
    // injector. Peeling it here (section() marks the prefixed keys
    // consumed) keeps every factory's rejectUnknown() oblivious, so
    // fault schedules attach to all sources without per-source code.
    const Params faults = params.section("faults");
    const bool faulted = !faults.keys().empty();
    sim::FaultPlan plan;
    if (faulted)
        plan = sim::FaultPlan::fromParams(faults);
    std::unique_ptr<EntropySource> source = it->second.factory(params);
    if (faulted)
        source = std::make_unique<sim::FaultInjector>(std::move(source),
                                                      std::move(plan));
    return source;
}

std::vector<std::string>
Registry::names()
{
    ensureBuiltins();
    std::vector<std::string> out;
    for (const auto &[name, entry] : entries())
        out.push_back(name);
    return out;
}

std::string
Registry::description(const std::string &name)
{
    ensureBuiltins();
    const auto it = entries().find(name);
    if (it == entries().end())
        throw std::invalid_argument(
            "Registry: unknown entropy source \"" + name +
            "\" (registered: " + knownNames() + ")");
    return it->second.description;
}

bool
Registry::contains(const std::string &name)
{
    ensureBuiltins();
    return entries().count(name) != 0;
}

} // namespace drange::trng

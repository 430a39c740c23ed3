#include "stats.hh"

#include <iomanip>

namespace svb
{

void
Scalar::snapshot(const std::string &prefix,
                 std::map<std::string, double> &out) const
{
    out[prefix + name()] = double(val);
}

void
Scalar::print(const std::string &prefix, std::ostream &os) const
{
    os << std::left << std::setw(48) << (prefix + name())
       << std::right << std::setw(16) << val << "  # " << desc() << "\n";
}

void
Formula::snapshot(const std::string &prefix,
                  std::map<std::string, double> &out) const
{
    out[prefix + name()] = value();
}

void
Formula::print(const std::string &prefix, std::ostream &os) const
{
    os << std::left << std::setw(48) << (prefix + name())
       << std::right << std::setw(16) << std::fixed
       << std::setprecision(4) << value() << "  # " << desc() << "\n";
    os.unsetf(std::ios::fixed);
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    auto stat = std::make_unique<Scalar>(name, desc);
    Scalar &ref = *stat;
    stats.push_back(std::move(stat));
    return ref;
}

Formula &
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      std::function<double()> fn)
{
    auto stat = std::make_unique<Formula>(name, desc, std::move(fn));
    Formula &ref = *stat;
    stats.push_back(std::move(stat));
    return ref;
}

StatGroup &
StatGroup::childGroup(const std::string &name)
{
    for (auto &child : children) {
        if (child->name() == name)
            return *child;
    }
    children.push_back(std::make_unique<StatGroup>(name));
    return *children.back();
}

void
StatGroup::resetAll()
{
    for (auto &stat : stats)
        stat->reset();
    for (auto &child : children)
        child->resetAll();
}

std::map<std::string, double>
StatGroup::snapshotAll() const
{
    std::map<std::string, double> out;
    snapshotInto(_name.empty() ? "" : _name + ".", out);
    return out;
}

void
StatGroup::snapshotInto(const std::string &prefix,
                        std::map<std::string, double> &out) const
{
    for (const auto &stat : stats)
        stat->snapshot(prefix, out);
    for (const auto &child : children) {
        if (child->hostOnly())
            continue;
        child->snapshotInto(prefix + child->name() + ".", out);
    }
}

void
StatGroup::printAll(std::ostream &os) const
{
    printInto(_name.empty() ? "" : _name + ".", os);
}

void
StatGroup::printInto(const std::string &prefix, std::ostream &os) const
{
    for (const auto &stat : stats)
        stat->print(prefix, os);
    for (const auto &child : children)
        child->printInto(prefix + child->name() + ".", os);
}

} // namespace svb

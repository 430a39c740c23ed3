/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Components own a StatGroup; they register named Scalar counters
 * and Formula (derived) values inside it. The
 * experiment harness resets the whole tree at region-of-interest
 * start and snapshots it at region end, exactly like gem5's stat
 * reset / stat dump magic operations.
 *
 * Thread-safety: none, by design. There is no global stat registry —
 * every StatGroup tree is rooted in exactly one System (StatGroup is
 * non-copyable and owned via unique_ptr), so concurrent experiments
 * on worker threads touch disjoint trees. Audited for the parallel
 * scheduler (core/parallel.hh).
 */

#ifndef SVB_SIM_STATS_HH
#define SVB_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace svb
{

class StatGroup;

/** Base class for every named statistic. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    virtual ~Stat() = default;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Reset the statistic to its initial value. */
    virtual void reset() = 0;

    /** Append (leafName -> value) pairs to a flat snapshot. */
    virtual void snapshot(const std::string &prefix,
                          std::map<std::string, double> &out) const = 0;

    /** Pretty-print one or more lines describing the current value. */
    virtual void print(const std::string &prefix,
                       std::ostream &os) const = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A monotonically adjustable 64-bit counter. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { ++val; return *this; }
    Scalar &operator+=(uint64_t n) { val += n; return *this; }
    uint64_t value() const { return val; }

    void reset() override { val = 0; }
    void snapshot(const std::string &prefix,
                  std::map<std::string, double> &out) const override;
    void print(const std::string &prefix, std::ostream &os) const override;

  private:
    uint64_t val = 0;
};

/** A value derived on demand from other statistics. */
class Formula : public Stat
{
  public:
    Formula(std::string name, std::string desc,
            std::function<double()> fn)
        : Stat(std::move(name), std::move(desc)), fn(std::move(fn))
    {}

    double value() const { return fn(); }

    void reset() override {}
    void snapshot(const std::string &prefix,
                  std::map<std::string, double> &out) const override;
    void print(const std::string &prefix, std::ostream &os) const override;

  private:
    std::function<double()> fn;
};

/**
 * A named tree node owning statistics and child groups.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Create and register a counter. */
    Scalar &addScalar(const std::string &name, const std::string &desc);

    /** Create and register a derived value. */
    Formula &addFormula(const std::string &name, const std::string &desc,
                        std::function<double()> fn);

    /** Create (or fetch an existing) child group. */
    StatGroup &childGroup(const std::string &name);

    const std::string &name() const { return _name; }

    /**
     * Mark this group as host-observability only: its statistics
     * measure simulator work (decode-cache lookups, superblock
     * formation), not guest events, so they are excluded from
     * snapshotAll() — the surface on which experiments assert
     * byte-identity across emulation tiers and checkpoint restores.
     * printAll() still lists them.
     */
    void markHostOnly() { _hostOnly = true; }
    bool hostOnly() const { return _hostOnly; }

    /** Recursively reset every statistic under this group. */
    void resetAll();

    /** Flatten the tree into dotted-name -> value pairs, skipping
     *  host-only subtrees. */
    std::map<std::string, double> snapshotAll() const;

    /** Pretty-print the whole tree. */
    void printAll(std::ostream &os) const;

  private:
    void snapshotInto(const std::string &prefix,
                      std::map<std::string, double> &out) const;
    void printInto(const std::string &prefix, std::ostream &os) const;

    std::string _name;
    bool _hostOnly = false;
    std::vector<std::unique_ptr<Stat>> stats;
    std::vector<std::unique_ptr<StatGroup>> children;
};

} // namespace svb

#endif // SVB_SIM_STATS_HH

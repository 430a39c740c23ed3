#include "fault.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace svb::load
{

namespace
{

double
clampProb(double p)
{
    return std::min(1.0, std::max(0.0, p));
}

/** Parse the whole of @p text as a finite double into @p out. */
bool
parseFinite(const std::string &text, double &out)
{
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && stop == end && std::isfinite(out);
}

} // namespace

FaultConfig
FaultConfig::scaled(double scale) const
{
    FaultConfig out = *this;
    out.coldStartFailProb = clampProb(coldStartFailProb * scale);
    out.crashProb = clampProb(crashProb * scale);
    out.stragglerProb = clampProb(stragglerProb * scale);
    out.restoreCorruptProb = clampProb(restoreCorruptProb * scale);
    return out;
}

FaultConfig
defaultFaultPreset()
{
    FaultConfig cfg;
    cfg.coldStartFailProb = 0.05;
    cfg.crashProb = 0.02;
    cfg.stragglerProb = 0.05;
    cfg.restoreCorruptProb = 0.02;
    return cfg;
}

FaultConfig
faultsFromEnv()
{
    const char *env = std::getenv("SVBENCH_FAULTS");
    if (env == nullptr || env[0] == '\0' ||
        (env[0] == '0' && env[1] == '\0'))
        return FaultConfig{};
    if (env[0] == '1' && env[1] == '\0')
        return defaultFaultPreset();

    FaultConfig cfg;
    std::istringstream is(env);
    std::string item;
    while (std::getline(is, item, ',')) {
        const size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
            warn("SVBENCH_FAULTS: ignoring malformed entry '", item, "'");
            continue;
        }
        const std::string key = item.substr(0, eq);
        double val = 0.0;
        if (!parseFinite(item.substr(eq + 1), val)) {
            warn("SVBENCH_FAULTS: ignoring malformed entry '", item, "'");
            continue;
        }
        if (key == "cold")
            cfg.coldStartFailProb = clampProb(val);
        else if (key == "crash")
            cfg.crashProb = clampProb(val);
        else if (key == "straggler")
            cfg.stragglerProb = clampProb(val);
        else if (key == "straggler-factor")
            cfg.stragglerFactor = std::max(1.0, val);
        else if (key == "restore")
            cfg.restoreCorruptProb = clampProb(val);
        else if (key == "restore-boot")
            cfg.restoreBootFactor = std::max(1.0, val);
        else
            warn("SVBENCH_FAULTS: ignoring unknown key '", key, "'");
    }
    return cfg;
}

uint64_t
BackoffSchedule::nextDelayNs(Rng &rng)
{
    const uint64_t base = pol.backoffBaseNs;
    if (base == 0)
        return 0;
    const uint64_t cap = std::max(pol.backoffCapNs, base);
    uint64_t delay;
    if (prevNs == 0) {
        // First retry: exactly the base — pins the schedule's origin
        // so golden tests can anchor the whole sequence.
        delay = base;
    } else {
        // Decorrelated jitter: uniform in [base, 3 * prev], clamped.
        // Saturate the multiply so a huge cap cannot wrap the bound.
        const uint64_t hi = prevNs > cap / 3 ? cap : std::min(cap, 3 * prevNs);
        delay = hi <= base ? base : base + rng.nextBounded(hi - base + 1);
    }
    delay = std::min(delay, cap);
    prevNs = delay;
    return delay;
}

const char *
breakerStateName(CircuitBreaker::State state)
{
    switch (state) {
      case CircuitBreaker::State::Closed: return "closed";
      case CircuitBreaker::State::Open: return "open";
      case CircuitBreaker::State::HalfOpen: return "half-open";
    }
    return "?";
}

void
CircuitBreaker::open(uint64_t now_ns)
{
    st = State::Open;
    openedAtNs = now_ns;
    probeSuccesses = 0;
    probeInFlight = false;
    ++opens;
}

bool
CircuitBreaker::admit(uint64_t now_ns)
{
    if (!cfg.enabled)
        return true;
    switch (st) {
      case State::Closed:
        return true;
      case State::Open:
        if (now_ns - openedAtNs < cfg.openCooldownNs)
            return false;
        // Cooldown elapsed: this request becomes the half-open probe.
        st = State::HalfOpen;
        probeSuccesses = 0;
        probeInFlight = true;
        return true;
      case State::HalfOpen:
        if (probeInFlight)
            return false; // one probe at a time; the rest shed
        probeInFlight = true;
        return true;
    }
    return true;
}

void
CircuitBreaker::onSuccess(uint64_t now_ns)
{
    if (!cfg.enabled)
        return;
    consecFailures = 0;
    if (st == State::HalfOpen) {
        probeInFlight = false;
        if (++probeSuccesses >= cfg.halfOpenSuccesses) {
            st = State::Closed;
            probeSuccesses = 0;
        }
    }
    (void)now_ns;
}

void
CircuitBreaker::onFailure(uint64_t now_ns)
{
    if (!cfg.enabled)
        return;
    if (st == State::HalfOpen) {
        // A failed probe re-opens immediately with a fresh cooldown.
        open(now_ns);
        return;
    }
    if (st == State::Closed && ++consecFailures >= cfg.failureThreshold) {
        consecFailures = 0;
        open(now_ns);
    }
}

void
CircuitBreaker::releaseProbe()
{
    if (st == State::HalfOpen)
        probeInFlight = false;
}

FaultInjector::Draw
FaultInjector::draw(bool cold)
{
    Draw d;
    if (!cfg.any())
        return d; // zero-rate config: the substream is never touched
    if (cold) {
        d.restoreCorrupt = rng.nextDouble() < cfg.restoreCorruptProb;
        d.coldFail = rng.nextDouble() < cfg.coldStartFailProb;
    }
    d.straggler = rng.nextDouble() < cfg.stragglerProb;
    d.crash = rng.nextDouble() < cfg.crashProb;
    d.crashFrac = 0.1 + 0.8 * rng.nextDouble();
    return d;
}

} // namespace svb::load

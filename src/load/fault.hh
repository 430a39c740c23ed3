/**
 * @file
 * Deterministic fault injection and client-side resilience machinery
 * for the invocation-load subsystem.
 *
 * The Figure-4.1 methodology assumes every invocation succeeds; real
 * FaaS platforms do not (SeBS benchmarks reliability alongside
 * performance, and Wang et al. show cold-start failures and
 * stragglers dominate user-visible tails). This header models the
 * failure side of that literature while keeping every number a pure
 * function of the scenario seed:
 *
 *  - FaultConfig / FaultInjector: per-attempt fault draws (failed
 *    cold starts, mid-request instance crashes, straggler slowdowns,
 *    corrupt checkpoint restores) from a dedicated Rng::split
 *    substream — enabling faults never perturbs the arrival, mix or
 *    warm-sample streams, so a zero-rate config is byte-identical to
 *    no fault layer at all.
 *  - RetryPolicy / BackoffSchedule: client-side retries with
 *    per-attempt timeouts and exponential backoff with decorrelated
 *    jitter (sleep_k = min(cap, uniform[base, 3*sleep_{k-1}])), all
 *    in simulated time.
 *  - CircuitBreaker: a per-function closed/open/half-open breaker
 *    that sheds to a degraded fast-path response while open and
 *    closes again after successful half-open probes.
 *
 * Everything here is plain value-semantics state driven by the attempt
 * engine (attempt_engine.cc); nothing reads clocks or global state, so
 * SVBENCH_JOBS worker count cannot influence an outcome.
 */

#ifndef SVB_LOAD_FAULT_HH
#define SVB_LOAD_FAULT_HH

#include <cstdint>
#include <string>

#include "sim/rng.hh"

namespace svb::load
{

/** Fault-model rates and shape parameters (all off by default). */
struct FaultConfig
{
    /** P(a cold start fails after consuming its full cold latency);
     *  the instance never comes up and the slot goes dead. */
    double coldStartFailProb = 0.0;
    /** P(the instance crashes mid-request); the crash point is a
     *  uniform fraction of the service time. */
    double crashProb = 0.0;
    /** P(a request is a straggler: service time multiplied). */
    double stragglerProb = 0.0;
    /** Straggler slowdown multiplier. */
    double stragglerFactor = 8.0;
    /** P(a cold start restores a corrupt checkpoint: the restore is
     *  discarded and the instance boots from scratch instead). */
    double restoreCorruptProb = 0.0;
    /** Boot-from-scratch penalty multiplier on the cold latency paid
     *  when a restore came up corrupt. */
    double restoreBootFactor = 3.0;

    /** @return true when any fault rate is nonzero. */
    bool any() const
    {
        return coldStartFailProb > 0.0 || crashProb > 0.0 ||
               stragglerProb > 0.0 || restoreCorruptProb > 0.0;
    }

    /** Every rate multiplied by @p scale (clamped to [0, 1]). */
    FaultConfig scaled(double scale) const;
};

/**
 * Parse SVBENCH_FAULTS into a FaultConfig.
 *
 * Unset, empty or "0" disables every fault; "1" selects a moderate
 * default preset (cold=0.05, crash=0.02, straggler=0.05,
 * restore=0.02); anything else is a comma-separated key=value list
 * over {cold, crash, straggler, straggler-factor, restore,
 * restore-boot}. An entry whose value is not wholly one finite
 * number, and an unknown key, warn and are ignored.
 */
FaultConfig faultsFromEnv();

/** The "1" preset of faultsFromEnv(), for benches that want faults
 *  even without the environment variable. */
FaultConfig defaultFaultPreset();

/** Client-side retry behaviour (all times simulated nanoseconds). */
struct RetryPolicy
{
    /** Total attempts per invocation; 1 = no retry. */
    unsigned maxAttempts = 1;
    /** Per-attempt client timeout from attempt start; 0 = none. The
     *  abandoned instance still finishes its work server-side. */
    uint64_t timeoutNs = 0;
    /** First backoff delay; 0 = retry immediately. */
    uint64_t backoffBaseNs = 0;
    /** Backoff delays never exceed this. */
    uint64_t backoffCapNs = 1'000'000'000; // 1 s
};

/**
 * Stateful decorrelated-jitter backoff: delay 1 is exactly
 * backoffBaseNs, delay k is uniform in [base, 3 * delay_{k-1}]
 * clamped to backoffCapNs. One schedule per invocation's retry
 * chain; randomness comes from the caller's dedicated substream.
 */
class BackoffSchedule
{
  public:
    explicit BackoffSchedule(const RetryPolicy &policy) : pol(policy) {}

    /** @return the next simulated-time delay before a retry. */
    uint64_t nextDelayNs(Rng &rng);

  private:
    RetryPolicy pol;
    uint64_t prevNs = 0;
};

/** Circuit-breaker parameters (disabled by default). */
struct BreakerConfig
{
    bool enabled = false;
    /** Consecutive client-visible failures that open the breaker. */
    unsigned failureThreshold = 5;
    /** How long an open breaker sheds before probing again. */
    uint64_t openCooldownNs = 50'000'000; // 50 ms
    /** Half-open probe successes required to close again. */
    unsigned halfOpenSuccesses = 2;
    /** Latency of the degraded fast-path response a shed request
     *  receives while the breaker is open. */
    uint64_t degradedNs = 50'000; // 50 us
};

/**
 * Per-function circuit breaker.
 *
 * Closed admits everything; failureThreshold consecutive failures
 * open it. Open sheds every request until openCooldownNs elapsed,
 * then admits a single half-open probe at a time: halfOpenSuccesses
 * successful probes close the breaker, any probe failure re-opens it
 * (with a fresh cooldown). All decisions are pure functions of the
 * call sequence — the engine calls admit/onSuccess/onFailure in
 * simulated-time order, so the state machine is deterministic.
 */
class CircuitBreaker
{
  public:
    enum class State
    {
        Closed,
        Open,
        HalfOpen,
    };

    explicit CircuitBreaker(const BreakerConfig &config) : cfg(config) {}

    /** @return true to admit the request at @p now_ns, false to shed
     *  it to the degraded fast path. */
    bool admit(uint64_t now_ns);

    /** A client-visible success completed at @p now_ns. */
    void onSuccess(uint64_t now_ns);

    /** A client-visible failure completed at @p now_ns. */
    void onFailure(uint64_t now_ns);

    /**
     * The request just admitted never reached a server (throttled, or
     * deferred until a node is routable): hand back the half-open
     * probe slot it holds, so the next request can probe. A no-op
     * unless HalfOpen.
     */
    void releaseProbe();

    State state() const { return st; }

    /** How many times the breaker has transitioned to Open. */
    uint64_t timesOpened() const { return opens; }

    /** When the breaker last opened (valid after the first open). */
    uint64_t lastOpenedAtNs() const { return openedAtNs; }

  private:
    void open(uint64_t now_ns);

    BreakerConfig cfg;
    State st = State::Closed;
    unsigned consecFailures = 0;
    unsigned probeSuccesses = 0;
    bool probeInFlight = false;
    uint64_t openedAtNs = 0;
    uint64_t opens = 0;
};

const char *breakerStateName(CircuitBreaker::State state);

/**
 * Per-attempt fault draws from one dedicated substream.
 *
 * A disabled config (no nonzero rate) never touches the stream, so
 * fault-off runs replay the exact byte sequence of a build without
 * the fault layer.
 */
class FaultInjector
{
  public:
    /** The outcome dice for one attempt. */
    struct Draw
    {
        bool restoreCorrupt = false; ///< cold only
        bool coldFail = false;       ///< cold only
        bool straggler = false;
        bool crash = false;
        /** Fraction of the service time before the crash, in
         *  [0.1, 0.9) — a crash always lands mid-request. */
        double crashFrac = 0.5;
    };

    /** @param rng substream dedicated to this injector (Rng::split). */
    FaultInjector(const FaultConfig &config, Rng rng_arg)
        : cfg(config), rng(rng_arg)
    {}

    /** Roll the fault dice for one attempt on the cold or warm path. */
    Draw draw(bool cold);

    bool enabled() const { return cfg.any(); }
    const FaultConfig &config() const { return cfg; }

  private:
    FaultConfig cfg;
    Rng rng;
};

} // namespace svb::load

#endif // SVB_LOAD_FAULT_HH

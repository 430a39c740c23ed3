/**
 * @file
 * A minimal deterministic event queue.
 *
 * The CPU models are cycle-driven, but system-level activity
 * (container lifecycle timers, scheduler quanta, deferred work) is
 * scheduled here. Events firing at the same tick are serviced in
 * insertion order so simulation is bit-reproducible.
 *
 * Thread-safety: instance-scoped, no synchronisation. Each System
 * owns exactly one EventQueue and a System is only ever driven by one
 * thread (the parallel experiment scheduler gives every worker its
 * own cluster — see core/parallel.hh).
 */

#ifndef SVB_SIM_EVENTQ_HH
#define SVB_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "types.hh"

namespace svb
{

/**
 * Global ordered queue of timed callbacks.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /**
     * Schedule a callback.
     *
     * @param when absolute tick at which to fire; must not be in the
     *             past relative to the queue's current time
     * @param name debugging label; must point at storage that outlives
     *             the event (in practice a string literal). Stored as
     *             a bare pointer so the hot path never allocates.
     * @param cb   the work to run
     */
    void schedule(Tick when, const char *name, Callback cb);

    /**
     * Service every event with firing time <= now, in order.
     *
     * @param now the new current time of the queue
     * @return the number of events serviced
     */
    size_t serviceUpTo(Tick now);

    /** @return tick of the earliest pending event, or maxTick. */
    Tick nextEventTick() const;

    /** @return number of events still pending. */
    size_t pending() const { return events.size(); }

    /** Drop all pending events (used on checkpoint restore). */
    void clear();

  private:
    struct ScheduledEvent
    {
        Tick when;
        uint64_t seq;
        const char *name;
        Callback cb;

        bool
        operator>(const ScheduledEvent &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    std::priority_queue<ScheduledEvent, std::vector<ScheduledEvent>,
                        std::greater<>> events;
    Tick _curTick = 0;
    uint64_t nextSeq = 0;
};

} // namespace svb

#endif // SVB_SIM_EVENTQ_HH

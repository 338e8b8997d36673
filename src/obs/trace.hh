/**
 * @file
 * Structured trace spans with a Chrome trace_event JSON exporter.
 *
 * A TraceSession collects *complete* events ("ph":"X": begin
 * timestamp plus duration) into per-thread buffers: span begin/end
 * pairs come from SpanGuard's constructor/destructor, so every
 * begin has a matching end by construction and events from
 * different threads never interleave inside one buffer.  Recording
 * costs one atomic load when tracing is disabled (the common case)
 * and one lock-free buffer append when enabled; threads register
 * their buffer once per session under a mutex.
 *
 * Export order is deterministic given deterministic span emission:
 * events sort by (tid, ts, -dur).  The output loads directly in
 * chrome://tracing or https://ui.perfetto.dev.
 */

#ifndef TRANSFUSION_OBS_TRACE_HH
#define TRANSFUSION_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace transfusion::obs
{

/** One completed span. */
struct TraceEvent
{
    std::string name;
    double ts_us = 0;  ///< begin, microseconds since session start
    double dur_us = 0; ///< duration, microseconds
    int tid = 0;       ///< session-local dense thread id
    int depth = 0;     ///< nesting depth at begin (0 = top level)
};

/**
 * Collects spans between start() and stop().  Export only after
 * stop() and after every traced thread has quiesced (joined or
 * drained); the bench harness stops at process exit.
 */
class TraceSession
{
  public:
    /** The process-wide session the TF_SPAN macro records into. */
    static TraceSession &global();

    /** Begin a fresh session: drops prior events, enables capture. */
    void start();
    /** Disable capture (already-recorded events are kept). */
    void stop();
    /** Whether spans are currently being captured. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** All events, sorted by (tid, ts, -dur). */
    std::vector<TraceEvent> events() const;

    /**
     * Chrome trace_event JSON ("traceEvents" array of "X" events
     * plus process/thread metadata).
     */
    void writeChromeTrace(std::ostream &os) const;

    /**
     * Per-thread event buffer.  Public only so the implementation's
     * thread-local cache can name it; not part of the API.
     */
    struct ThreadBuffer
    {
        int tid = 0;
        int depth = 0;
        std::vector<TraceEvent> events;
    };

  private:
    friend class SpanGuard;

    /** This thread's buffer for the current session epoch. */
    ThreadBuffer &threadBuffer();

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> epoch_{0};
    std::chrono::steady_clock::time_point origin_{};

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/**
 * RAII span: records one complete event into the global session's
 * buffer for this thread.  A disabled session makes construction
 * and destruction nearly free (one relaxed atomic load each) and
 * builds nothing: the event's name string is made only when the
 * span is recorded.  `name` must outlive the guard (a literal or a
 * static name table entry).
 */
class SpanGuard
{
  public:
    explicit SpanGuard(const char *name);
    ~SpanGuard();
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    bool active_ = false;
    int depth_ = 0;
    const char *name_;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace transfusion::obs

#endif // TRANSFUSION_OBS_TRACE_HH

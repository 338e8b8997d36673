/**
 * @file
 * Implementation of the trace-span collector and Chrome exporter.
 */

#include "trace.hh"

#include <algorithm>
#include <cstdio>

namespace transfusion::obs
{

namespace
{

/** Thread-local cache: which session epoch `buffer` belongs to. */
struct BufferCache
{
    std::uint64_t epoch = 0;
    TraceSession::ThreadBuffer *buffer = nullptr;
};

thread_local BufferCache t_cache;

/** JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

TraceSession &
TraceSession::global()
{
    static TraceSession instance;
    return instance;
}

void
TraceSession::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    origin_ = std::chrono::steady_clock::now();
    // Publish the new epoch before enabling so no recorder can pair
    // the new `enabled` with a stale buffer.
    epoch_.fetch_add(1, std::memory_order_release);
    enabled_.store(true, std::memory_order_release);
}

void
TraceSession::stop()
{
    enabled_.store(false, std::memory_order_release);
}

TraceSession::ThreadBuffer &
TraceSession::threadBuffer()
{
    const std::uint64_t epoch =
        epoch_.load(std::memory_order_acquire);
    if (t_cache.buffer == nullptr || t_cache.epoch != epoch) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto buf = std::make_unique<ThreadBuffer>();
        buf->tid = static_cast<int>(buffers_.size());
        t_cache.buffer = buf.get();
        t_cache.epoch = epoch;
        buffers_.push_back(std::move(buf));
    }
    return *t_cache.buffer;
}

std::vector<TraceEvent>
TraceSession::events() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buf : buffers_)
            out.insert(out.end(), buf->events.begin(),
                       buf->events.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.ts_us != b.ts_us)
                      return a.ts_us < b.ts_us;
                  return a.dur_us > b.dur_us;
              });
    return out;
}

void
TraceSession::writeChromeTrace(std::ostream &os) const
{
    const auto evs = events();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"name\":\"process_name\","
          "\"args\":{\"name\":\"transfusion\"}}";
    for (const auto &e : evs) {
        os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
           << ",\"name\":\"" << jsonEscape(e.name) << "\",\"ts\":"
           << e.ts_us << ",\"dur\":" << e.dur_us << "}";
    }
    os << "\n]}\n";
}

SpanGuard::SpanGuard(const char *name) : name_(name)
{
    TraceSession &session = TraceSession::global();
    if (!session.enabled())
        return;
    TraceSession::ThreadBuffer &buf = session.threadBuffer();
    active_ = true;
    depth_ = buf.depth++;
    start_ = std::chrono::steady_clock::now();
}

SpanGuard::~SpanGuard()
{
    if (!active_)
        return;
    TraceSession &session = TraceSession::global();
    const auto end = std::chrono::steady_clock::now();
    // A restart between begin and end would hand us a buffer whose
    // depth we never incremented; drop the span in that case.
    if (t_cache.epoch
            != session.epoch_.load(std::memory_order_acquire)
        || t_cache.buffer == nullptr) {
        return;
    }
    TraceSession::ThreadBuffer &buf = *t_cache.buffer;
    buf.depth--;
    TraceEvent e;
    e.name = name_;
    e.tid = buf.tid;
    e.depth = depth_;
    using us = std::chrono::duration<double, std::micro>;
    e.ts_us = us(start_ - session.origin_).count();
    e.dur_us = us(end - start_).count();
    buf.events.push_back(std::move(e));
}

} // namespace transfusion::obs

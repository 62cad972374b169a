#include "obs/trace.h"

#include <chrono>
#include <sstream>

#include "obs/log.h"  // json_escape

namespace tfc::obs {

std::int64_t trace_now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() - epoch).count();
}

TraceCollector& TraceCollector::global() {
  // Leaked: a pool worker's span opened while tracing was on may close after
  // main returns, and must not record into a destroyed collector.
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

int TraceCollector::tid_for_current_thread_locked() {
  const auto id = std::this_thread::get_id();
  auto it = thread_ids_.find(id);
  if (it != thread_ids_.end()) return it->second;
  const int tid = int(thread_ids_.size()) + 1;
  thread_ids_.emplace(id, tid);
  return tid;
}

void TraceCollector::record(const char* name, std::int64_t begin_us,
                            std::int64_t duration_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({name, begin_us, duration_us, tid_for_current_thread_locked()});
}

std::size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::string TraceCollector::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const Event& e = events_[k];
    if (k != 0) out << ',';
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"tfc\",\"ph\":\"X\""
        << ",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << e.begin_us
        << ",\"dur\":" << e.duration_us << '}';
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

}  // namespace tfc::obs

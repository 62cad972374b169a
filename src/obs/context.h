/// \file context.h
/// \brief Request-scoped observability context: a thread-local trace id plus
/// a per-request span collector that `TFC_SPAN` feeds automatically.
///
/// The batch-oriented TraceCollector (trace.h) buffers spans process-wide and
/// exports them once at exit — useless for a daemon that runs for weeks. A
/// `RequestTrace` instead collects the spans of ONE request on the thread
/// handling it: the service installs a `ScopedRequestContext` around each
/// handler, every `TFC_SPAN` opened underneath nests into the request's span
/// tree, and the tree can be returned inline in the reply, appended to a
/// rolling trace file, or attached to a slow-request log line.
///
/// A `RequestTrace` is deliberately single-threaded (no locks): it captures
/// the handler thread only. Spans opened on tfc::par pool threads keep going
/// to the global collector but are invisible to the request trace — the
/// handler-side spans (assemble, factorize, solve, the request envelope) are
/// the ones per-request triage needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/log.h"  // Field, json_escape

namespace tfc::obs {

/// Span tree of one request, filled by TFC_SPAN via the thread-local
/// context. Open/close/attr are O(1); to_json renders the nested tree.
class RequestTrace {
 public:
  struct SpanNode {
    const char* name;        ///< string literal (same contract as TFC_SPAN)
    int parent;              ///< index of the enclosing span, -1 for roots
    std::int64_t begin_us;   ///< trace_now_us() at open
    std::int64_t dur_us;     ///< -1 while the span is still open
    std::vector<Field> attrs;
  };

  /// Open a span nested under the innermost open one. Returns its index.
  int open(const char* name, std::int64_t begin_us) {
    const int idx = int(spans_.size());
    spans_.push_back({name, open_stack_.empty() ? -1 : open_stack_.back(),
                      begin_us, -1, {}});
    open_stack_.push_back(idx);
    return idx;
  }

  /// Close the span at \p index. RAII guarantees LIFO order, but close is
  /// tolerant: anything opened after \p index is popped too.
  void close(int index, std::int64_t end_us) {
    if (index < 0 || index >= int(spans_.size())) return;
    spans_[std::size_t(index)].dur_us = end_us - spans_[std::size_t(index)].begin_us;
    while (!open_stack_.empty() && open_stack_.back() >= index) open_stack_.pop_back();
  }

  /// Attach a typed attribute to the innermost open span (no-op when no span
  /// is open). Use via TFC_SPAN_ATTR so call sites stay zero-cost outside a
  /// request context.
  void attr(Field field) {
    if (!open_stack_.empty()) {
      spans_[std::size_t(open_stack_.back())].attrs.push_back(std::move(field));
    }
  }

  const std::vector<SpanNode>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }

  /// Sum of `dur_us` over all closed spans named \p name (a span family may
  /// run several times per request, e.g. one refactorization per sweep step).
  std::int64_t total_us(const char* name) const;

  /// Sum of the numeric values of attribute \p key over all spans named
  /// \p name (e.g. total CG iterations of a request).
  double total_attr(const char* name, const char* key) const;

  /// The span family with the largest aggregate SELF time (duration minus
  /// the duration of direct children) — the request's dominant kernel.
  /// Returns {"", 0} for an empty trace; ties break by name so the result
  /// is deterministic.
  struct TopSelf {
    std::string name;
    double self_ms = 0.0;
  };
  TopSelf top_self() const;

  /// The span tree as one JSON object:
  /// `{"trace_id":"...","span_count":N,"spans":[{"name":...,"start_us":...,
  ///   "dur_us":...,"attrs":{...},"children":[...]}, ...]}`.
  /// `start_us` is relative to the first span's begin. Hand-built (obs sits
  /// below tfc::io); parseable by io::parse_json.
  std::string to_json(const std::string& trace_id) const;

 private:
  std::vector<SpanNode> spans_;
  std::vector<int> open_stack_;
};

/// The thread-local request context TFC_SPAN / TFC_SPAN_ATTR consult.
struct Context {
  std::string trace_id;
  RequestTrace* trace = nullptr;
};

/// Current thread's request trace (nullptr outside any request scope).
/// One relaxed thread-local read — cheap enough for solver hot paths.
RequestTrace* current_request_trace();

/// Current trace id ("" outside any request scope).
const std::string& current_trace_id();

/// RAII installer: binds (trace_id, trace) to the calling thread for the
/// scope's lifetime, restoring the previous context on exit (scopes nest).
class ScopedRequestContext {
 public:
  ScopedRequestContext(std::string trace_id, RequestTrace* trace);
  ~ScopedRequestContext();

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  Context context_;
  Context* previous_;
};

}  // namespace tfc::obs

/// Attach a typed attribute to the innermost open span of the current
/// request trace. Compiles to one thread-local read when no request context
/// is installed; the Field is only constructed when it will be recorded.
#define TFC_SPAN_ATTR(key, value)                                        \
  do {                                                                   \
    if (::tfc::obs::RequestTrace* tfc_obs_rt =                           \
            ::tfc::obs::current_request_trace()) {                       \
      tfc_obs_rt->attr(::tfc::obs::Field((key), (value)));               \
    }                                                                    \
  } while (0)

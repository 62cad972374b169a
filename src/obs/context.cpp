#include "obs/context.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <string_view>

namespace tfc::obs {

namespace {

thread_local Context* t_current_context = nullptr;

const std::string kEmptyTraceId;

/// Render one typed field value as a JSON value (strings quoted/escaped,
/// non-finite doubles quoted — same policy as JsonlSink).
void append_json_value(std::ostringstream& out, const Field::Value& value) {
  switch (value.index()) {
    case 0:
      out << '"' << json_escape(std::get<std::string>(value)) << '"';
      return;
    case 1: {
      const double v = std::get<double>(value);
      if (std::isfinite(v)) {
        char buf[32];
        auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
        out.write(buf, ec == std::errc() ? ptr - buf : 1);
      } else {
        out << '"' << field_value_to_string(value) << '"';
      }
      return;
    }
    case 4:
      out << (std::get<bool>(value) ? "true" : "false");
      return;
    default:
      out << field_value_to_string(value);
  }
}

}  // namespace

RequestTrace* current_request_trace() {
  return t_current_context != nullptr ? t_current_context->trace : nullptr;
}

const std::string& current_trace_id() {
  return t_current_context != nullptr ? t_current_context->trace_id : kEmptyTraceId;
}

ScopedRequestContext::ScopedRequestContext(std::string trace_id, RequestTrace* trace)
    : context_{std::move(trace_id), trace}, previous_(t_current_context) {
  t_current_context = &context_;
}

ScopedRequestContext::~ScopedRequestContext() { t_current_context = previous_; }

std::int64_t RequestTrace::total_us(const char* name) const {
  std::int64_t acc = 0;
  for (const SpanNode& s : spans_) {
    if (s.dur_us >= 0 && std::string_view(s.name) == name) acc += s.dur_us;
  }
  return acc;
}

double RequestTrace::total_attr(const char* name, const char* key) const {
  double acc = 0.0;
  for (const SpanNode& s : spans_) {
    if (std::string_view(s.name) != name) continue;
    for (const Field& f : s.attrs) {
      if (f.key != key) continue;
      switch (f.value.index()) {
        case 1: acc += std::get<double>(f.value); break;
        case 2: acc += double(std::get<std::int64_t>(f.value)); break;
        case 3: acc += double(std::get<std::uint64_t>(f.value)); break;
        default: break;
      }
    }
  }
  return acc;
}

RequestTrace::TopSelf RequestTrace::top_self() const {
  // Self time per span = dur minus the dur of direct (closed) children,
  // clamped at zero; aggregate by name, then take the max.
  std::vector<std::int64_t> child_us(spans_.size(), 0);
  for (const SpanNode& s : spans_) {
    if (s.parent >= 0 && s.dur_us >= 0) child_us[std::size_t(s.parent)] += s.dur_us;
  }
  std::vector<std::pair<std::string_view, std::int64_t>> by_name;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const SpanNode& s = spans_[k];
    if (s.dur_us < 0) continue;
    const std::int64_t self = std::max<std::int64_t>(0, s.dur_us - child_us[k]);
    bool merged = false;
    for (auto& entry : by_name) {
      if (entry.first == s.name) {
        entry.second += self;
        merged = true;
        break;
      }
    }
    if (!merged) by_name.emplace_back(s.name, self);
  }
  TopSelf top;
  std::int64_t best = -1;
  for (const auto& [name, self] : by_name) {
    if (self > best || (self == best && name < top.name)) {
      best = self;
      top.name = std::string(name);
      top.self_ms = double(self) / 1000.0;
    }
  }
  return top;
}

std::string RequestTrace::to_json(const std::string& trace_id) const {
  // children[i] = indices of spans whose parent is i; roots under -1.
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<int> roots;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const int parent = spans_[k].parent;
    if (parent < 0) {
      roots.push_back(int(k));
    } else {
      children[std::size_t(parent)].push_back(int(k));
    }
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().begin_us;

  std::ostringstream out;
  // Recursive render without recursion limits biting: span trees are as deep
  // as the instrumented call stack (~10), so plain recursion is fine.
  auto render = [&](auto&& self, int index) -> void {
    const SpanNode& s = spans_[std::size_t(index)];
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"start_us\":"
        << (s.begin_us - origin) << ",\"dur_us\":" << s.dur_us;
    if (!s.attrs.empty()) {
      out << ",\"attrs\":{";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        if (a != 0) out << ',';
        out << '"' << json_escape(s.attrs[a].key) << "\":";
        append_json_value(out, s.attrs[a].value);
      }
      out << '}';
    }
    const auto& kids = children[std::size_t(index)];
    if (!kids.empty()) {
      out << ",\"children\":[";
      for (std::size_t c = 0; c < kids.size(); ++c) {
        if (c != 0) out << ',';
        self(self, kids[c]);
      }
      out << ']';
    }
    out << '}';
  };

  out.str("");
  std::ostringstream doc;
  doc << "{\"trace_id\":\"" << json_escape(trace_id) << "\",\"span_count\":"
      << spans_.size() << ",\"spans\":[";
  for (std::size_t r = 0; r < roots.size(); ++r) {
    if (r != 0) doc << ',';
    out.str("");
    render(render, roots[r]);
    doc << out.str();
  }
  doc << "]}";
  return doc.str();
}

}  // namespace tfc::obs

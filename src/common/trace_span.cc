#include "common/trace_span.h"

#include <algorithm>
#include <ostream>
#include <string_view>

#include "common/json.h"

namespace stagedcmp {

uint32_t TraceCollector::TidForThisThreadLocked() {
  const std::thread::id self = std::this_thread::get_id();
  auto it = tids_.find(self);
  if (it != tids_.end()) return it->second;
  const uint32_t tid = static_cast<uint32_t>(thread_names_.size());
  tids_.emplace(self, tid);
  thread_names_.emplace_back();
  return tid;
}

void TraceCollector::NameThisThread(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t tid = TidForThisThreadLocked();
  if (thread_names_[tid].empty()) thread_names_[tid] = name;
}

void TraceCollector::RecordComplete(const char* cat, std::string name,
                                    uint64_t ts_us, uint64_t dur_us,
                                    std::string args_json,
                                    uint64_t start_seq) {
  Event ev;
  ev.name = std::move(name);
  ev.cat = cat;
  ev.ts = ts_us;
  ev.dur = dur_us == 0 ? 1 : dur_us;
  ev.seq = start_seq;
  ev.args = std::move(args_json);
  std::lock_guard<std::mutex> lock(mu_);
  ev.tid = TidForThisThreadLocked();
  events_.push_back(std::move(ev));
}

std::vector<TraceCollector::Event> TraceCollector::SortedEvents() const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  if (deterministic_) {
    // Canonical order, independent of wall clock and thread identity.
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                const int cat = std::string_view(a.cat).compare(b.cat);
                if (cat != 0) return cat < 0;
                if (a.name != b.name) return a.name < b.name;
                return a.args < b.args;
              });
    for (size_t i = 0; i < events.size(); ++i) {
      events[i].ts = i;
      events[i].dur = 1;
      events[i].tid = 0;
    }
  } else {
    // Start order: ts first, then the span start sequence — which alone
    // settles clock ties, so a parent always precedes its children even
    // when both start within the same microsecond.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       if (a.ts != b.ts) return a.ts < b.ts;
                       return a.seq < b.seq;
                     });
  }
  return events;
}

size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<std::string> TraceCollector::ThreadNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return thread_names_;
}

void TraceCollector::WriteJson(std::ostream& os) const {
  const std::vector<Event> events = SortedEvents();
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    os << (first ? "\n" : ",\n") << "    ";
    first = false;
  };
  // Thread-name metadata first (Perfetto track labels). Deterministic
  // mode collapses everything onto tid 0, so per-thread names would leak
  // registration order — skip them there.
  if (!deterministic_) {
    const std::vector<std::string> names = ThreadNames();
    for (uint32_t tid = 0; tid < names.size(); ++tid) {
      sep();
      const std::string name =
          names[tid].empty() ? "thread-" + std::to_string(tid) : names[tid];
      os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
         << ", \"name\": \"thread_name\", \"args\": {\"name\": "
         << JsonQuote(name) << "}}";
    }
  }
  const int pid = deterministic_ ? 0 : 1;
  for (const Event& ev : events) {
    sep();
    os << "{\"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << ev.tid
       << ", \"cat\": " << JsonQuote(ev.cat)
       << ", \"name\": " << JsonQuote(ev.name) << ", \"ts\": " << ev.ts
       << ", \"dur\": " << ev.dur;
    if (!ev.args.empty()) os << ", \"args\": " << ev.args;
    os << "}";
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace stagedcmp

#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

#include "obs/stats_registry.hpp"

namespace scallop::obs {

namespace {

void Append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// If `name` opens a span ("<base>.sent" or "<base>.begin"), returns the
// name that would close it; otherwise returns an empty string.
std::string ClosingName(const std::string& name) {
  if (EndsWith(name, ".sent")) {
    return name.substr(0, name.size() - 5) + ".applied";
  }
  if (EndsWith(name, ".begin")) {
    return name.substr(0, name.size() - 6) + ".end";
  }
  return "";
}

}  // namespace

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kControl: return "control";
    case Category::kFleet: return "fleet";
    case Category::kFederation: return "federation";
    case Category::kTopology: return "topology";
    case Category::kRedundancy: return "redundancy";
    case Category::kPlacement: return "placement";
    case Category::kScheduler: return "scheduler";
  }
  return "?";
}

void TraceLog::Emit(util::TimeUs t, Category category, const std::string& track,
                    const std::string& name, uint64_t corr,
                    const std::string& detail) {
  ++total_emitted_;
  if (ring_capacity_ > 0 && events_.size() == ring_capacity_) {
    events_.pop_front();
    ++evicted_;
  }
  events_.push_back(TraceEvent{t, category, track, name, corr, detail});
}

void Emitf(TraceLog* log, util::TimeUs t, Category category,
           std::string_view track, std::string_view name, uint64_t corr,
           const char* fmt, ...) {
  if (log == nullptr) return;
  va_list ap;
  va_start(ap, fmt);
  VEmitf(log, t, category, track, name, corr, fmt, ap);
  va_end(ap);
}

void VEmitf(TraceLog* log, util::TimeUs t, Category category,
            std::string_view track, std::string_view name, uint64_t corr,
            const char* fmt, va_list args) {
  if (log == nullptr) return;
  char detail[160];
  vsnprintf(detail, sizeof(detail), fmt, args);
  log->Emit(t, category, std::string(track), std::string(name), corr, detail);
}

std::string TraceLog::ToText() const {
  std::string out;
  for (const TraceEvent& e : events_) {
    Append(out, "%" PRId64 " %s %s %s corr=%" PRIu64, e.t,
           CategoryName(e.category), e.track.c_str(), e.name.c_str(), e.corr);
    if (!e.detail.empty()) {
      out += ' ';
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

std::string TraceLog::ToChromeJson(const StatsRegistry* registry) const {
  // Stable tid per track, in first-appearance order.
  std::map<std::string, int> tids;
  std::vector<std::string> track_order;
  for (const TraceEvent& e : events_) {
    if (tids.emplace(e.track, 0).second) track_order.push_back(e.track);
  }
  int next_tid = 1;
  for (const std::string& track : track_order) tids[track] = next_tid++;

  // Match span pairs: an opener ("x.sent"/"x.begin") pairs with the first
  // later event on the same track with the same corr id and the closing
  // name ("x.applied"/"x.end"). The span is emitted at the opener's
  // position (ts = open time, dur = close - open) so per-track timestamps
  // stay monotone; the closer itself is then suppressed.
  const size_t n = events_.size();
  std::vector<size_t> close_of(n, n);  // opener index -> closer index
  std::vector<bool> is_closer(n, false);
  std::map<std::string, std::vector<size_t>> open;  // key -> opener indices
  size_t idx = 0;
  for (const TraceEvent& e : events_) {
    if (e.corr != 0) {
      std::string closing = ClosingName(e.name);
      if (!closing.empty()) {
        char key[64];
        snprintf(key, sizeof(key), "|%" PRIu64, e.corr);
        open[e.track + "|" + closing + key].push_back(idx);
      } else {
        char key[64];
        snprintf(key, sizeof(key), "|%" PRIu64, e.corr);
        auto it = open.find(e.track + "|" + e.name + key);
        if (it != open.end() && !it->second.empty()) {
          close_of[it->second.front()] = idx;
          it->second.erase(it->second.begin());
          is_closer[idx] = true;
        }
      }
    }
    ++idx;
  }

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const std::string& track : track_order) {
    if (!first) out += ",\n";
    first = false;
    Append(out,
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"%s\"}}",
           tids[track], JsonEscape(track).c_str());
  }
  for (size_t i = 0; i < n; ++i) {
    if (is_closer[i]) continue;
    const TraceEvent& e = events_[i];
    if (!first) out += ",\n";
    first = false;
    if (close_of[i] != n) {
      const TraceEvent& c = events_[close_of[i]];
      std::string base = e.name.substr(0, e.name.rfind('.'));
      Append(out,
             "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%" PRId64
             ",\"dur\":%" PRId64 ",\"cat\":\"%s\",\"name\":\"%s\"",
             tids[e.track], e.t, c.t - e.t, CategoryName(e.category),
             JsonEscape(base).c_str());
    } else {
      Append(out,
             "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%" PRId64
             ",\"s\":\"t\",\"cat\":\"%s\",\"name\":\"%s\"",
             tids[e.track], e.t, CategoryName(e.category),
             JsonEscape(e.name).c_str());
    }
    Append(out, ",\"args\":{\"corr\":%" PRIu64, e.corr);
    if (!e.detail.empty()) {
      Append(out, ",\"detail\":\"%s\"", JsonEscape(e.detail).c_str());
    }
    out += "}}";
  }
  if (registry != nullptr && !registry->entries().empty()) {
    if (!first) out += ",\n";
    first = false;
    out +=
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"stats\",\"args\":{";
    bool first_stat = true;
    for (const auto& [name, value] : registry->entries()) {
      if (!first_stat) out += ',';
      first_stat = false;
      Append(out, "\"%s\":%.15g", JsonEscape(name).c_str(), value);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

namespace {

// Pulls the raw value text of `"key":<value>` out of one JSON object.
// Good enough for the self-generated exporter format.
bool FindField(const std::string& obj, const char* key, std::string* value) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = obj.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  size_t end = pos;
  if (end < obj.size() && obj[end] == '"') {
    ++end;
    while (end < obj.size() && obj[end] != '"') {
      if (obj[end] == '\\') ++end;
      ++end;
    }
    *value = obj.substr(pos + 1, end - pos - 1);
    return true;
  }
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
  *value = obj.substr(pos, end - pos);
  return true;
}

}  // namespace

bool TraceLog::ValidateChromeTrace(const std::string& json,
                                   std::string* error) {
  // Pass 1: structural balance, tracking string literals and escapes.
  int depth_brace = 0;
  int depth_bracket = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_brace; break;
      case '}': --depth_brace; break;
      case '[': ++depth_bracket; break;
      case ']': --depth_bracket; break;
      default: break;
    }
    if (depth_brace < 0 || depth_bracket < 0) {
      if (error) *error = "unbalanced close";
      return false;
    }
  }
  if (in_string || depth_brace != 0 || depth_bracket != 0) {
    if (error) *error = "unbalanced JSON";
    return false;
  }
  if (json.find("\"traceEvents\"") == std::string::npos) {
    if (error) *error = "missing traceEvents";
    return false;
  }

  // Pass 2: per-tid monotone non-decreasing ts for timed events. Scan the
  // top-level objects of the traceEvents array.
  std::map<long long, long long> last_ts;
  size_t i = json.find('[');
  int depth = 0;
  size_t obj_start = 0;
  in_string = false;
  for (; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) obj_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        std::string obj = json.substr(obj_start, i - obj_start + 1);
        std::string ph, tid_s, ts_s;
        if (!FindField(obj, "ph", &ph)) {
          if (error) *error = "event missing ph";
          return false;
        }
        if (ph == "M") continue;
        if (!FindField(obj, "tid", &tid_s) || !FindField(obj, "ts", &ts_s)) {
          if (error) *error = "timed event missing tid/ts";
          return false;
        }
        long long tid = atoll(tid_s.c_str());
        long long ts = atoll(ts_s.c_str());
        auto it = last_ts.find(tid);
        if (it != last_ts.end() && ts < it->second) {
          if (error) {
            char buf[128];
            snprintf(buf, sizeof(buf),
                     "ts regression on tid %lld: %lld < %lld", tid, ts,
                     it->second);
            *error = buf;
          }
          return false;
        }
        last_ts[tid] = ts;
      }
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  if (error) error->clear();
  return true;
}

}  // namespace scallop::obs

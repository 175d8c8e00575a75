#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace fd::obs::trace {

namespace {

constexpr std::string_view kZeroId = "0000000000000000";

// Canonical process key of one telemetry row: "coord" (coordinator
// tag), "w<N>" (forwarded worker event), or "main" (untagged
// single-process stream).
std::string process_key(const jsonl::Object& obj) {
  const jsonl::Value* w = obj.find("worker");
  if (w == nullptr) return "main";
  if (w->kind == jsonl::Value::Kind::kString) return w->str;
  if (w->kind == jsonl::Value::Kind::kNumber) {
    // Appended to a named string: GCC 12 at -O3 flags the temporary
    // concatenation "w" + std::to_string(...) with a false -Wrestrict.
    std::string key = "w";
    key += std::to_string(static_cast<long long>(w->num));
    return key;
  }
  return "main";
}

std::string process_display_name(const std::string& key) {
  if (key == "coord") return "coordinator";
  if (key == "main") return "fd-attack";
  if (key.size() > 1 && key[0] == 'w') return "worker " + key.substr(1);
  return key;
}

// Stable pid order: coordinator first, then the single-process track,
// then workers by number, then anything else lexicographically.
int process_rank(const std::string& key) {
  if (key == "coord") return 0;
  if (key == "main") return 1;
  if (key.size() > 1 && key[0] == 'w') return 2;
  return 3;
}

struct ProcessTable {
  std::map<std::string, int> pid;  // key -> 1-based pid
  std::vector<std::string> ordered_keys;

  void assign() {
    std::sort(ordered_keys.begin(), ordered_keys.end(),
              [](const std::string& a, const std::string& b) {
                const int ra = process_rank(a), rb = process_rank(b);
                if (ra != rb) return ra < rb;
                if (ra == 2) {  // numeric worker order, not lexicographic
                  return std::stol(a.substr(1)) < std::stol(b.substr(1));
                }
                return a < b;
              });
    int next = 1;
    for (const std::string& k : ordered_keys) pid[k] = next++;
  }
};

void append_kv_ts(std::string& out, double rel_us) {
  out += "\"ts\":";
  jsonl::append_number(out, rel_us);
}

// Renders the leading common fields of one trace event.
void begin_event(std::string& out, std::string_view name, char ph, double rel_us, int pid,
                 long tid) {
  out += "{\"name\":\"";
  out += jsonl::escape(name);
  out += "\",\"ph\":\"";
  out += ph;
  out += "\",";
  append_kv_ts(out, rel_us);
  out += ",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
}

void append_value(std::string& out, const jsonl::Value& v) {
  switch (v.kind) {
    case jsonl::Value::Kind::kNull:
      out += "null";
      break;
    case jsonl::Value::Kind::kBool:
      out += v.b ? "true" : "false";
      break;
    case jsonl::Value::Kind::kNumber:
      jsonl::append_number(out, v.num);
      break;
    case jsonl::Value::Kind::kString:
      out += '"';
      out += jsonl::escape(v.str);
      out += '"';
      break;
    case jsonl::Value::Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out += ',';
        append_value(out, v.items[i]);
      }
      out += ']';
      break;
  }
}

bool is_instant_event(std::string_view ev) {
  return ev.substr(0, 6) == "fleet." || ev.substr(0, 9) == "pipeline.";
}

}  // namespace

std::string chrome_trace_json(const std::vector<jsonl::Object>& events, ExportStats* stats) {
  ExportStats local;
  ExportStats& st = stats != nullptr ? *stats : local;
  st = ExportStats{};
  st.events_in = events.size();

  // ---- pass 1: processes, time base, span-id set, task groups,
  // thread names ------------------------------------------------------
  ProcessTable procs;
  {
    std::set<std::string> keys;
    for (const auto& obj : events) keys.insert(process_key(obj));
    procs.ordered_keys.assign(keys.begin(), keys.end());
    procs.assign();
  }
  st.processes = procs.pid.size();

  double ts0 = 0.0;
  bool have_ts = false;
  std::unordered_set<std::string> span_ids;
  // task id note -> indices of "fleet.task.*" span events, input order.
  std::map<std::string, std::vector<std::size_t>> task_groups;
  // (pid, tid) -> last name wins.
  std::map<std::pair<int, long>, std::string> thread_names;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& obj = events[i];
    const std::string_view ev = obj.str("ev");
    const jsonl::Value* ts = obj.find("ts_us");
    if (ts != nullptr && ts->kind == jsonl::Value::Kind::kNumber) {
      if (!have_ts || ts->num < ts0) ts0 = ts->num;
      have_ts = true;
    }
    if (ev == "span") {
      const std::string_view id = obj.str("span");
      if (id.size() == 16) span_ids.insert(std::string(id));
      const jsonl::Value* task = obj.find("task");
      if (task != nullptr && task->kind == jsonl::Value::Kind::kNumber &&
          obj.str("name").substr(0, 11) == "fleet.task.") {
        std::string key;
        jsonl::append_number(key, task->num);
        task_groups[key].push_back(i);
      }
    } else if (ev == "thread.name") {
      const int pid = procs.pid[process_key(obj)];
      const long tid = static_cast<long>(obj.num("tid", 0.0));
      thread_names[{pid, tid}] = std::string(obj.str("name"));
    }
  }

  // Flow roles: span event index -> (bind key, out?, in?). A task that
  // ran k times (reassignments) chains attempt j -> j+1.
  struct FlowRole {
    std::string bind;
    bool out = false;
    bool in = false;
  };
  std::unordered_map<std::size_t, FlowRole> flows;
  for (auto& [task, idxs] : task_groups) {
    if (idxs.size() < 2) continue;
    std::stable_sort(idxs.begin(), idxs.end(), [&](std::size_t a, std::size_t b) {
      return events[a].num("ts_us", 0.0) < events[b].num("ts_us", 0.0);
    });
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      FlowRole& role = flows[idxs[j]];
      role.bind = task;
      role.out = j + 1 < idxs.size();
      role.in = j > 0;
      if (role.out) ++st.flow_arrows;
    }
  }

  // ---- pass 2: emit -------------------------------------------------
  std::vector<std::string> out_events;
  out_events.reserve(events.size() + 2 * st.processes);

  // Metadata first: process names/sort order, then thread names.
  for (const std::string& key : procs.ordered_keys) {
    const int pid = procs.pid[key];
    std::string m = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                    ",\"args\":{\"name\":\"" + jsonl::escape(process_display_name(key)) + "\"}}";
    out_events.push_back(std::move(m));
    m = "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
        ",\"args\":{\"sort_index\":" + std::to_string(pid) + "}}";
    out_events.push_back(std::move(m));
  }
  for (const auto& [key, name] : thread_names) {
    std::string m = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + std::to_string(key.first) +
                    ",\"tid\":" + std::to_string(key.second) + ",\"args\":{\"name\":\"" +
                    jsonl::escape(name) + "\"}}";
    out_events.push_back(std::move(m));
    ++st.thread_names;
  }

  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& obj = events[i];
    const std::string_view ev = obj.str("ev");
    const jsonl::Value* ts = obj.find("ts_us");
    if (ts == nullptr || ts->kind != jsonl::Value::Kind::kNumber) continue;
    const double rel = ts->num - ts0;
    const int pid = procs.pid[process_key(obj)];

    if (ev == "span") {
      const jsonl::Value* dur = obj.find("wall_us");
      if (dur == nullptr || dur->kind != jsonl::Value::Kind::kNumber) continue;
      const std::string_view parent = obj.str("parent");
      if (parent.size() == 16 && parent != kZeroId &&
          span_ids.find(std::string(parent)) == span_ids.end()) {
        ++st.orphan_spans;
      }
      std::string e;
      begin_event(e, obj.str("name"), 'X', rel, pid, static_cast<long>(obj.num("tid", 0.0)));
      e += ",\"dur\":";
      jsonl::append_number(e, dur->num);
      if (const auto it = flows.find(i); it != flows.end()) {
        e += ",\"bind_id\":\"0x";
        e += it->second.bind;
        e += '"';
        if (it->second.out) e += ",\"flow_out\":true";
        if (it->second.in) e += ",\"flow_in\":true";
      }
      e += ",\"args\":{";
      bool first = true;
      for (const auto& [k, v] : obj.fields) {
        if (k == "ev" || k == "name" || k == "ts_us" || k == "wall_us" || k == "tid" ||
            k == "worker") {
          continue;
        }
        if (!first) e += ',';
        first = false;
        e += '"';
        e += jsonl::escape(k);
        e += "\":";
        append_value(e, v);
      }
      e += "}}";
      out_events.push_back(std::move(e));
      ++st.spans;
    } else if (ev == "profile") {
      std::string e;
      begin_event(e, "rss_bytes", 'C', rel, pid, 0);
      e += ",\"args\":{\"rss\":";
      jsonl::append_number(e, obj.num("rss_bytes", 0.0));
      e += "}}";
      out_events.push_back(std::move(e));
      e.clear();
      begin_event(e, "cpu_ms", 'C', rel, pid, 0);
      e += ",\"args\":{\"user\":";
      jsonl::append_number(e, obj.num("cpu_user_ms", 0.0));
      e += ",\"sys\":";
      jsonl::append_number(e, obj.num("cpu_sys_ms", 0.0));
      e += "}}";
      out_events.push_back(std::move(e));
      e.clear();
      begin_event(e, "read_bytes", 'C', rel, pid, 0);
      e += ",\"args\":{\"read\":";
      jsonl::append_number(e, obj.num("read_bytes", 0.0));
      e += "}}";
      out_events.push_back(std::move(e));
      ++st.counter_samples;
    } else if (is_instant_event(ev)) {
      std::string e;
      begin_event(e, ev, 'i', rel, pid, static_cast<long>(obj.num("tid", 0.0)));
      e += ",\"s\":\"p\",\"args\":{";
      bool first = true;
      for (const auto& [k, v] : obj.fields) {
        if (k == "ev" || k == "ts_us" || k == "tid" || k == "worker") continue;
        if (!first) e += ',';
        first = false;
        e += '"';
        e += jsonl::escape(k);
        e += "\":";
        append_value(e, v);
      }
      e += "}}";
      out_events.push_back(std::move(e));
      ++st.instants;
    }
  }

  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < out_events.size(); ++i) {
    out += out_events[i];
    if (i + 1 < out_events.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  return out;
}

bool export_chrome_trace(const std::string& jsonl_path, const std::string& out_path,
                         std::string* err, ExportStats* stats) {
  std::FILE* in = std::fopen(jsonl_path.c_str(), "rb");
  if (in == nullptr) {
    if (err != nullptr) *err = "cannot open " + jsonl_path;
    return false;
  }
  jsonl::StreamReader reader;
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), in);
    if (n == 0) break;
    reader.feed(std::string_view(buf, n));
  }
  std::fclose(in);
  reader.finish();

  std::vector<jsonl::Object> events;
  jsonl::Object obj;
  while (reader.next(obj)) events.push_back(std::move(obj));

  ExportStats local;
  ExportStats& st = stats != nullptr ? *stats : local;
  const std::string json = chrome_trace_json(events, &st);
  st.malformed_lines = reader.malformed_lines() + (reader.had_truncated_tail() ? 1 : 0);

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    if (err != nullptr) *err = "cannot write " + out_path;
    return false;
  }
  const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), out);
  const bool ok = wrote == json.size() && std::fclose(out) == 0;
  if (!ok && err != nullptr) *err = "short write to " + out_path;
  return ok;
}

}  // namespace fd::obs::trace

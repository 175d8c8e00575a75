// fd-report: render a telemetry JSONL file (obs::JsonLinesSink output)
// into human-readable attack summaries.
//
//   fd-report <telemetry.jsonl>            per-label summary tables
//   fd-report <telemetry.jsonl> --label L  full convergence curve of one label
//   fd-report <telemetry.jsonl> --follow   tail a live run (fleet telemetry)
//   fd-report <telemetry.jsonl> --export-trace <out.json>
//                                          Chrome/Perfetto trace export
//
// --follow tails the file like `tail -f`, feeding whatever bytes are
// there through obs::jsonl::StreamReader -- which tolerates a
// mid-record final line (a writer caught between write() calls) -- and
// renders each cpa.snapshot / fleet.* event as it lands, so a running
// `fd-attack --fleet N --telemetry F` shows per-component convergence
// and worker lifecycle live. The tail survives log rotation: when the
// path is renamed away and recreated (or truncated in place) the file
// is reopened and followed from the start of the new generation,
// counters carried over. --poll-ms sets the poll cadence;
// --exit-after-idle-ms N exits once the file has been quiet that long
// (0 = follow forever), then prints the usual summary tables.
//
// The headline table is the per-coefficient trace-count-vs-rank view of
// the "cpa.snapshot" stream: for every component label it shows the
// final top-1 guess, the top-1/top-2 margin, and the trace count from
// which the true value holds rank 0 to the end ("disclosed@") -- the
// offline reconstruction of the paper's Fig. 4 e-h convergence curves.
//
// Links only the always-compiled obs core (jsonl parser), so it reads
// telemetry from instrumented builds even when built with FD_OBS=OFF.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_export.h"

namespace jsonl = fd::obs::jsonl;

namespace {

struct Snapshot {
  std::size_t traces = 0;
  std::uint64_t top1_guess = 0;
  double top1_r = 0.0;
  double top2_r = 0.0;
  double margin = 0.0;
  long truth_rank = -1;
  double truth_r = 0.0;
};

struct Phase {
  std::string phase;
  std::size_t candidates_in = 0;
  std::size_t kept = 0;
  std::uint64_t value = 0;
  double score = 0.0;
  double wall_us = -1.0;  // absent in files from before per-phase timing
};

struct Campaign {
  std::string mode;
  std::size_t queries = 0;
  std::size_t records = 0;
  double wall_us = 0.0;
};

struct SpanStats {
  std::size_t count = 0;
  double total_us = 0.0;
  // Duration distribution in the shared log-bucket geometry, so the
  // always-compiled histogram_percentile gives p50/p95/p99.
  fd::obs::HistogramView hist;
};

// One span occurrence with its propagated ids -- the raw material for
// self-time (total minus direct children) in the summary table.
struct SpanInstance {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::size_t name_idx = 0;  // into Report::spans
  double dur_us = 0.0;
};

// Per-label series, kept in first-seen order so the report is stable
// across runs of the same telemetry file.
template <typename T>
class LabelSeries {
 public:
  std::vector<T>& at(std::string_view label) {
    const auto it = index_.find(std::string(label));
    if (it != index_.end()) return series_[it->second].second;
    index_.emplace(label, series_.size());
    series_.emplace_back(label, std::vector<T>());
    return series_.back().second;
  }
  [[nodiscard]] const auto& all() const { return series_; }
  [[nodiscard]] const std::vector<T>* find(std::string_view label) const {
    const auto it = index_.find(std::string(label));
    return it == index_.end() ? nullptr : &series_[it->second].second;
  }

 private:
  std::vector<std::pair<std::string, std::vector<T>>> series_;
  std::map<std::string, std::size_t> index_;
};

// Coordinator-side fleet.* lines (worker lifecycle, task scheduling).
struct FleetStats {
  std::size_t workers_spawned = 0;
  std::size_t worker_deaths = 0;
  std::size_t reassignments = 0;
  std::size_t tasks_assigned = 0;
  std::size_t tasks_done = 0;
  std::size_t tasks_failed = 0;
  bool seen = false;
};

// Traces-to-disclosure matrix: "mtd" rows emitted by the backend
// benches (bench_mtd --json), one per (scenario, backend). Rendered as
// a scenario x backend table -- the headline comparison of the
// pluggable distinguisher engines.
struct MtdMatrix {
  std::vector<std::string> backends;  // columns, first-seen order
  std::vector<std::pair<std::string, std::map<std::string, long>>> rows;

  void add(std::string_view scenario, std::string_view backend, long mtd) {
    if (std::find(backends.begin(), backends.end(), backend) == backends.end()) {
      backends.emplace_back(backend);
    }
    for (auto& [s, cells] : rows) {
      if (s == scenario) {
        cells[std::string(backend)] = mtd;
        return;
      }
    }
    rows.emplace_back(scenario, std::map<std::string, long>{{std::string(backend), mtd}});
  }
};

struct Report {
  LabelSeries<Snapshot> snapshots;
  LabelSeries<Phase> phases;
  std::vector<Campaign> campaigns;
  std::vector<std::pair<std::string, SpanStats>> spans;  // first-seen order
  std::vector<SpanInstance> span_instances;
  FleetStats fleet;
  // attack.remeasure lines: the recovery driver emits one per round in
  // single-process and fleet runs alike.
  std::size_t remeasure_rounds = 0;
  MtdMatrix mtd;
  std::size_t events = 0;
  std::size_t parse_errors = 0;
};

void add_span(Report& rep, const jsonl::Object& obj) {
  const std::string_view name = obj.str("name");
  const double wall_us = obj.num("wall_us");
  std::size_t idx = rep.spans.size();
  for (std::size_t i = 0; i < rep.spans.size(); ++i) {
    if (rep.spans[i].first == name) {
      idx = i;
      break;
    }
  }
  if (idx == rep.spans.size()) rep.spans.emplace_back(name, SpanStats{});
  SpanStats& st = rep.spans[idx].second;
  ++st.count;
  st.total_us += wall_us;
  if (st.hist.count == 0) {
    st.hist.min = st.hist.max = wall_us;
  } else {
    st.hist.min = std::min(st.hist.min, wall_us);
    st.hist.max = std::max(st.hist.max, wall_us);
  }
  ++st.hist.count;
  st.hist.sum += wall_us;
  ++st.hist.buckets[fd::obs::histogram_bucket_index(wall_us)];

  const std::uint64_t id = fd::obs::parse_span_id_hex(obj.str("span"));
  if (id != 0) {
    rep.span_instances.push_back(
        {id, fd::obs::parse_span_id_hex(obj.str("parent")), idx, wall_us});
  }
}

void ingest_object(Report& rep, const jsonl::Object& obj) {
  ++rep.events;
  const std::string_view ev = obj.str("ev");
  if (ev == "cpa.snapshot") {
    Snapshot s;
    s.traces = static_cast<std::size_t>(obj.num("traces"));
    s.top1_guess = static_cast<std::uint64_t>(obj.num("top1_guess"));
    s.top1_r = obj.num("top1_r");
    s.top2_r = obj.num("top2_r");
    s.margin = obj.num("margin");
    s.truth_rank = static_cast<long>(obj.num("truth_rank", -1.0));
    s.truth_r = obj.num("truth_r");
    rep.snapshots.at(obj.str("label")).push_back(s);
  } else if (ev == "ep.phase") {
    Phase p;
    p.phase = obj.str("phase");
    p.candidates_in = static_cast<std::size_t>(obj.num("candidates_in"));
    p.kept = static_cast<std::size_t>(obj.num("kept"));
    p.value = static_cast<std::uint64_t>(obj.num("value"));
    p.score = obj.num("score");
    p.wall_us = obj.num("wall_us", -1.0);
    rep.phases.at(obj.str("label")).push_back(p);
  } else if (ev == "sca.campaign") {
    Campaign c;
    c.mode = obj.str("mode");
    c.queries = static_cast<std::size_t>(obj.num("queries"));
    c.records = static_cast<std::size_t>(obj.num("records"));
    c.wall_us = obj.num("wall_us");
    rep.campaigns.push_back(c);
  } else if (ev == "mtd") {
    rep.mtd.add(obj.str("scenario"), obj.str("backend"),
                static_cast<long>(obj.num("mtd", -1.0)));
  } else if (ev == "span") {
    add_span(rep, obj);
  } else if (ev == "attack.remeasure") {
    ++rep.remeasure_rounds;
  } else if (ev.substr(0, 6) == "fleet.") {
    rep.fleet.seen = true;
    if (ev == "fleet.worker.spawn") ++rep.fleet.workers_spawned;
    if (ev == "fleet.worker.dead") ++rep.fleet.worker_deaths;
    if (ev == "fleet.task.reassign") ++rep.fleet.reassignments;
    if (ev == "fleet.task.assign") ++rep.fleet.tasks_assigned;
    if (ev == "fleet.task.done") ++rep.fleet.tasks_done;
    if (ev == "fleet.task.failed") ++rep.fleet.tasks_failed;
  }
}

void ingest_line(Report& rep, std::string_view line) {
  // Skip blank lines quietly; count malformed ones.
  std::size_t ws = 0;
  while (ws < line.size() && (line[ws] == ' ' || line[ws] == '\t' || line[ws] == '\r')) ++ws;
  if (ws == line.size()) return;

  jsonl::Object obj;
  if (!jsonl::parse_object(line, obj)) {
    ++rep.parse_errors;
    return;
  }
  ingest_object(rep, obj);
}

// Smallest trace count from which the truth holds rank 0 through the
// final snapshot; -1 if it never stabilizes (or was not tracked).
long disclosed_at(const std::vector<Snapshot>& snaps) {
  long at = -1;
  for (const auto& s : snaps) {
    if (s.truth_rank == 0) {
      if (at < 0) at = static_cast<long>(s.traces);
    } else {
      at = -1;  // lost rank 0 again; restart
    }
  }
  return at;
}

void print_summary(const Report& rep) {
  if (rep.fleet.seen) {
    std::printf("== fleet ==\n");
    std::printf("  workers: %zu spawned, %zu died\n", rep.fleet.workers_spawned,
                rep.fleet.worker_deaths);
    std::printf("  tasks: %zu assigned, %zu done, %zu failed, %zu reassignment%s\n",
                rep.fleet.tasks_assigned, rep.fleet.tasks_done, rep.fleet.tasks_failed,
                rep.fleet.reassignments, rep.fleet.reassignments == 1 ? "" : "s");
    std::printf("\n");
  }

  if (rep.remeasure_rounds > 0) {
    std::printf("== recovery ==\n");
    std::printf("  re-measurement rounds: %zu\n\n", rep.remeasure_rounds);
  }

  if (!rep.campaigns.empty()) {
    std::printf("== campaigns ==\n");
    for (const auto& c : rep.campaigns) {
      std::printf("  mode=%-9s queries=%-8zu records=%-10zu wall=%.3fs\n", c.mode.c_str(),
                  c.queries, c.records, c.wall_us / 1e6);
    }
    std::printf("\n");
  }

  if (!rep.snapshots.all().empty()) {
    std::printf("== per-component convergence (cpa.snapshot) ==\n");
    std::printf("  %-14s %6s %8s %12s %9s %9s %6s %11s\n", "label", "snaps", "traces", "top1",
                "top1_r", "margin", "rank", "disclosed@");
    for (const auto& [label, snaps] : rep.snapshots.all()) {
      const Snapshot& last = snaps.back();
      const long at = disclosed_at(snaps);
      char at_buf[24];
      if (at < 0) {
        std::snprintf(at_buf, sizeof(at_buf), "%s", "-");
      } else {
        std::snprintf(at_buf, sizeof(at_buf), "%ld", at);
      }
      char rank_buf[24];
      if (last.truth_rank < 0) {
        std::snprintf(rank_buf, sizeof(rank_buf), "%s", "-");
      } else {
        std::snprintf(rank_buf, sizeof(rank_buf), "%ld", last.truth_rank);
      }
      std::printf("  %-14s %6zu %8zu %12llu %9.5f %9.5f %6s %11s\n", label.c_str(),
                  snaps.size(), last.traces,
                  static_cast<unsigned long long>(last.top1_guess), last.top1_r, last.margin,
                  rank_buf, at_buf);
    }
    std::printf("\n");
  }

  if (!rep.mtd.rows.empty()) {
    std::printf("== traces-to-disclosure by backend (mtd) ==\n");
    std::printf("  %-24s", "scenario");
    for (const auto& b : rep.mtd.backends) std::printf(" %10s", b.c_str());
    std::printf("\n");
    for (const auto& [scenario, cells] : rep.mtd.rows) {
      std::printf("  %-24s", scenario.c_str());
      for (const auto& b : rep.mtd.backends) {
        const auto it = cells.find(b);
        if (it == cells.end() || it->second < 0) {
          std::printf(" %10s", "-");
        } else {
          std::printf(" %10ld", it->second);
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  if (!rep.phases.all().empty()) {
    std::printf("== extend-and-prune (ep.phase) ==\n");
    std::printf("  %-14s %-12s %12s %8s %12s %9s %10s\n", "label", "phase", "candidates",
                "kept", "value", "score", "wall_us");
    // Per-phase wall-time totals over every label, in first-seen order.
    std::vector<std::pair<std::string, double>> totals;
    for (const auto& [label, phases] : rep.phases.all()) {
      for (const auto& p : phases) {
        std::printf("  %-14s %-12s %12zu %8zu %12llu %9.5f", label.c_str(), p.phase.c_str(),
                    p.candidates_in, p.kept, static_cast<unsigned long long>(p.value), p.score);
        if (p.wall_us < 0.0) {
          std::printf(" %10s\n", "-");
          continue;
        }
        std::printf(" %10.1f\n", p.wall_us);
        auto it = std::find_if(totals.begin(), totals.end(),
                               [&](const auto& t) { return t.first == p.phase; });
        if (it == totals.end()) it = totals.insert(totals.end(), {p.phase, 0.0});
        it->second += p.wall_us;
      }
    }
    if (!totals.empty()) {
      std::printf("  phase wall totals:");
      for (const auto& [phase, us] : totals) std::printf(" %s %.3f ms", phase.c_str(), us / 1e3);
      std::printf("\n");
    }
    std::printf("\n");
  }

  if (!rep.spans.empty()) {
    // Self time: each instance's duration minus its direct children's.
    // Works from the propagated span/parent ids, so in a fleet file a
    // worker task span counts against the coordinator stage span that
    // spawned it. Files without ids degrade to self == total.
    std::map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < rep.span_instances.size(); ++i) {
      by_id[rep.span_instances[i].id] = i;
    }
    std::vector<double> child_us(rep.span_instances.size(), 0.0);
    for (const SpanInstance& inst : rep.span_instances) {
      const auto it = by_id.find(inst.parent);
      if (it != by_id.end()) child_us[it->second] += inst.dur_us;
    }
    std::vector<double> self_us(rep.spans.size(), 0.0);
    std::vector<bool> has_ids(rep.spans.size(), false);
    for (std::size_t i = 0; i < rep.span_instances.size(); ++i) {
      const SpanInstance& inst = rep.span_instances[i];
      has_ids[inst.name_idx] = true;
      self_us[inst.name_idx] += std::max(0.0, inst.dur_us - child_us[i]);
    }

    std::printf("== spans ==\n");
    std::printf("  %-28s %8s %11s %11s %10s %10s %10s\n", "name", "count", "total_ms",
                "self_ms", "p50_us", "p95_us", "p99_us");
    for (std::size_t i = 0; i < rep.spans.size(); ++i) {
      const auto& [name, st] = rep.spans[i];
      const double self = has_ids[i] ? self_us[i] : st.total_us;
      std::printf("  %-28s %8zu %11.3f %11.3f %10.1f %10.1f %10.1f\n", name.c_str(), st.count,
                  st.total_us / 1e3, self / 1e3, fd::obs::histogram_percentile(st.hist, 50.0),
                  fd::obs::histogram_percentile(st.hist, 95.0),
                  fd::obs::histogram_percentile(st.hist, 99.0));
    }
    std::printf("\n");
  }
}

int print_curve(const Report& rep, const std::string& label) {
  const std::vector<Snapshot>* snaps = rep.snapshots.find(label);
  if (snaps == nullptr || snaps->empty()) {
    std::fprintf(stderr, "fd-report: no cpa.snapshot events for label '%s'\n", label.c_str());
    return 1;
  }
  std::printf("# convergence curve: %s\n", label.c_str());
  std::printf("%8s %12s %9s %9s %9s %6s %9s\n", "traces", "top1", "top1_r", "top2_r",
              "margin", "rank", "truth_r");
  for (const auto& s : *snaps) {
    char rank_buf[24];
    if (s.truth_rank < 0) {
      std::snprintf(rank_buf, sizeof(rank_buf), "%s", "-");
    } else {
      std::snprintf(rank_buf, sizeof(rank_buf), "%ld", s.truth_rank);
    }
    std::printf("%8zu %12llu %9.5f %9.5f %9.5f %6s %9.5f\n", s.traces,
                static_cast<unsigned long long>(s.top1_guess), s.top1_r, s.top2_r, s.margin,
                rank_buf, s.truth_r);
  }
  return 0;
}

// One line per live event: convergence for cpa.snapshot, lifecycle for
// fleet.*. Everything else accumulates silently into the report.
void render_live(const jsonl::Object& obj) {
  const std::string_view ev = obj.str("ev");
  char wtag[32] = "";
  if (const jsonl::Value* wv = obj.find("worker"); wv != nullptr) {
    if (wv->kind == jsonl::Value::Kind::kString) {
      std::snprintf(wtag, sizeof(wtag), " [%s]", wv->str.c_str());
    } else if (wv->kind == jsonl::Value::Kind::kNumber && wv->num >= 0.0) {
      std::snprintf(wtag, sizeof(wtag), " [w%ld]", static_cast<long>(wv->num));
    }
  }

  if (ev == "cpa.snapshot") {
    const long rank = static_cast<long>(obj.num("truth_rank", -1.0));
    char rank_buf[24];
    if (rank < 0) {
      std::snprintf(rank_buf, sizeof(rank_buf), "%s", "-");
    } else {
      std::snprintf(rank_buf, sizeof(rank_buf), "%ld", rank);
    }
    std::printf("%-14s traces=%-7zu top1=%-8llu margin=%8.5f rank=%s%s\n",
                std::string(obj.str("label")).c_str(),
                static_cast<std::size_t>(obj.num("traces")),
                static_cast<unsigned long long>(obj.num("top1_guess")), obj.num("margin"),
                rank_buf, wtag);
  } else if (ev == "ep.phase") {
    std::printf("%-14s phase=%-12s candidates=%-5zu kept=%-5zu score=%8.5f%s\n",
                std::string(obj.str("label")).c_str(), std::string(obj.str("phase")).c_str(),
                static_cast<std::size_t>(obj.num("candidates_in")),
                static_cast<std::size_t>(obj.num("kept")), obj.num("score"), wtag);
  } else if (ev == "mtd") {
    const long at = static_cast<long>(obj.num("mtd", -1.0));
    char at_buf[24];
    if (at < 0) {
      std::snprintf(at_buf, sizeof(at_buf), "%s", "-");
    } else {
      std::snprintf(at_buf, sizeof(at_buf), "%ld", at);
    }
    std::printf("mtd: %-24s backend=%-9s disclosed@%s\n",
                std::string(obj.str("scenario")).c_str(),
                std::string(obj.str("backend")).c_str(), at_buf);
  } else if (ev == "fleet.worker.spawn") {
    std::printf("fleet: worker %ld up (pid %llu)\n", static_cast<long>(obj.num("worker")),
                static_cast<unsigned long long>(obj.num("pid")));
  } else if (ev == "fleet.worker.dead") {
    std::printf("fleet: worker %ld DOWN (%s)\n", static_cast<long>(obj.num("worker")),
                std::string(obj.str("detail")).c_str());
  } else if (ev == "fleet.task.assign") {
    std::printf("fleet: task %llu -> worker %ld (attempt %llu, %llu components)\n",
                static_cast<unsigned long long>(obj.num("task")),
                static_cast<long>(obj.num("worker")),
                static_cast<unsigned long long>(obj.num("attempt")),
                static_cast<unsigned long long>(obj.num("components")));
  } else if (ev == "fleet.task.done") {
    std::printf("fleet: task %llu done%s\n", static_cast<unsigned long long>(obj.num("task")),
                wtag);
  } else if (ev == "fleet.task.reassign") {
    std::printf("fleet: task %llu REASSIGNED (attempt %llu)\n",
                static_cast<unsigned long long>(obj.num("task")),
                static_cast<unsigned long long>(obj.num("attempt")));
  } else if (ev == "fleet.progress") {
    std::printf("fleet: task %llu %llu/%llu components%s\n",
                static_cast<unsigned long long>(obj.num("task")),
                static_cast<unsigned long long>(obj.num("completed")),
                static_cast<unsigned long long>(obj.num("total")), wtag);
  } else if (ev == "attack.remeasure") {
    std::printf("re-measurement round %llu (%llu components low-confidence)\n",
                static_cast<unsigned long long>(obj.num("round")),
                static_cast<unsigned long long>(obj.num("low_confidence")));
  } else if (ev == "fleet.done") {
    std::printf("fleet: run finished (ok=%s)\n", obj.num("ok") != 0.0 ? "yes" : "NO");
  }
}

int follow(const std::string& path, std::size_t poll_ms, std::size_t idle_exit_ms) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "fd-report: cannot open %s\n", path.c_str());
    return 2;
  }
  Report rep;
  jsonl::StreamReader reader;
  jsonl::Object obj;
  std::size_t idle_ms = 0;
  std::size_t rotations = 0;
  struct stat open_st {};
  ::fstat(fileno(f), &open_st);
  char buf[1 << 16];
  const auto drain = [&] {
    while (reader.next(obj)) {
      ingest_object(rep, obj);
      render_live(obj);
    }
  };
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    if (n > 0) {
      idle_ms = 0;
      reader.feed({buf, n});
      drain();
      std::fflush(stdout);
      continue;
    }
    // At EOF for now; the writer may still be appending.
    std::clearerr(f);
    // Rotation check: the path now names a different file (rename +
    // recreate, the logrotate default) or the file shrank under us
    // (copytruncate). Finish the current stream -- so an unterminated
    // tail of the old generation is promoted or recorded, not glued to
    // the first line of the new file -- then tail the replacement from
    // offset 0 with the same reader, which keeps the event and
    // malformed-line counters across the boundary.
    struct stat now_st {};
    if (::stat(path.c_str(), &now_st) == 0 &&
        (now_st.st_dev != open_st.st_dev || now_st.st_ino != open_st.st_ino ||
         now_st.st_size < std::ftell(f))) {
      std::FILE* nf = std::fopen(path.c_str(), "rb");
      if (nf != nullptr) {
        std::fclose(f);
        f = nf;
        ::fstat(fileno(f), &open_st);
        reader.finish();
        drain();
        ++rotations;
        idle_ms = 0;
        std::fflush(stdout);
        continue;
      }
    }
    if (idle_exit_ms > 0 && idle_ms >= idle_exit_ms) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    idle_ms += poll_ms;
  }
  std::fclose(f);
  // Promote a parseable unterminated tail (writer died mid-flush).
  reader.finish();
  while (reader.next(obj)) {
    ingest_object(rep, obj);
    render_live(obj);
  }
  rep.parse_errors += reader.malformed_lines();

  std::printf("\nfd-report: %s -- %zu events", path.c_str(), rep.events);
  if (rotations > 0) std::printf(", %zu rotations", rotations);
  if (rep.parse_errors > 0) std::printf(", %zu malformed lines", rep.parse_errors);
  if (reader.had_truncated_tail()) std::printf(", truncated tail");
  std::printf("\n\n");
  print_summary(rep);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: fd-report <telemetry.jsonl>\n"
               "       fd-report <telemetry.jsonl> --label <label>\n"
               "       fd-report <telemetry.jsonl> --follow [--poll-ms N]\n"
               "                                   [--exit-after-idle-ms N]\n"
               "       fd-report <telemetry.jsonl> --export-trace <out.json>\n");
  return 2;
}

int export_trace(const std::string& path, const std::string& out_path) {
  fd::obs::trace::ExportStats st;
  std::string err;
  if (!fd::obs::trace::export_chrome_trace(path, out_path, &err, &st)) {
    std::fprintf(stderr, "fd-report: %s\n", err.c_str());
    return 2;
  }
  std::printf("fd-report: %s -> %s\n", path.c_str(), out_path.c_str());
  std::printf("  %zu events -> %zu slices, %zu counter samples, %zu instants, %zu flow arrows\n",
              st.events_in, st.spans, st.counter_samples, st.instants, st.flow_arrows);
  std::printf("  %zu process track%s, %zu named threads\n", st.processes,
              st.processes == 1 ? "" : "s", st.thread_names);
  if (st.malformed_lines > 0) std::printf("  %zu malformed lines skipped\n", st.malformed_lines);
  if (st.orphan_spans > 0) {
    std::printf("  WARNING: %zu span%s with a missing parent (stream cut mid-run?)\n",
                st.orphan_spans, st.orphan_spans == 1 ? "" : "s");
  }
  std::printf("  open in https://ui.perfetto.dev or chrome://tracing\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string label;
  std::string export_path;
  bool follow_mode = false;
  std::size_t poll_ms = 50;
  std::size_t idle_exit_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--label") {
      if (i + 1 >= argc) return usage();
      label = argv[++i];
    } else if (arg == "--export-trace") {
      if (i + 1 >= argc) return usage();
      export_path = argv[++i];
    } else if (arg == "--follow") {
      follow_mode = true;
    } else if (arg == "--poll-ms") {
      if (i + 1 >= argc) return usage();
      poll_ms = std::strtoull(argv[++i], nullptr, 0);
      if (poll_ms == 0) poll_ms = 1;
    } else if (arg == "--exit-after-idle-ms") {
      if (i + 1 >= argc) return usage();
      idle_exit_ms = std::strtoull(argv[++i], nullptr, 0);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  if (!export_path.empty()) return export_trace(path, export_path);
  if (follow_mode) return follow(path, poll_ms, idle_exit_ms);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "fd-report: cannot open %s\n", path.c_str());
    return 2;
  }
  Report rep;
  std::string line;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) {
    if (ch == '\n') {
      ingest_line(rep, line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(ch));
    }
  }
  if (!line.empty()) ingest_line(rep, line);
  std::fclose(f);

  if (!label.empty()) return print_curve(rep, label);

  std::printf("fd-report: %s -- %zu events", path.c_str(), rep.events);
  if (rep.parse_errors > 0) std::printf(", %zu malformed lines", rep.parse_errors);
  std::printf("\n\n");
  print_summary(rep);
  return 0;
}

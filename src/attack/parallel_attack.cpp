#include "attack/parallel_attack.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "attack/slot_matrix.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace fd::attack {

namespace {

// The one component fan-out over hn slots. prepare(ci, ds, rep) yields
// component ci's dataset and its slot's gate report, or a reason it
// cannot be attacked; a bad id or a failed prepare records the first
// error and skips that component, the others still run. One component
// per chunk: component attacks are the coarse unit of work (seconds
// each at paper sizes), so finer chunking buys nothing and per-index
// chunks keep the static plan balanced.
template <typename Prepare>
bool fan_out(std::size_t hn, Prepare&& prepare, const ComponentConfigFn& config_for,
             exec::ThreadPool* pool, std::span<const std::size_t> components,
             std::vector<ComponentResult>& results,
             std::vector<std::size_t>& accepted_traces, QualityReport& total,
             std::string& error) {
  const std::size_t n = hn * 2;
  std::mutex mu;  // guards error and the aggregate report
  const auto fail = [&](std::string msg) {
    std::lock_guard<std::mutex> lock(mu);
    if (error.empty()) error = std::move(msg);
  };
  exec::parallel_for_chunks(pool, components.size(), components.size(),
                            [&](exec::ChunkRange r, std::size_t) {
    for (std::size_t k = r.begin; k < r.end; ++k) {
      const std::size_t idx = components[k];
      if (idx >= n) {
        fail("component id " + std::to_string(idx) + " out of range");
        continue;
      }
      const ComponentIndex ci = component_index(idx, hn);
      ComponentDataset ds;
      QualityReport rep;
      std::string why = prepare(ci, ds, rep);
      if (!why.empty()) {
        fail(std::move(why));
        continue;
      }
      results[idx] = attack_component(ds, config_for(ci));
      accepted_traces[idx] = ds.num_traces;
      std::lock_guard<std::mutex> lock(mu);
      total.add(rep);
    }
  });
  if (!error.empty()) return false;
  obs::MetricsRegistry::global().counter("attack.components").add(components.size());
  return true;
}

}  // namespace

std::vector<ComponentResult> attack_all_components_parallel(
    const std::vector<sca::TraceSet>& sets, const ComponentConfigFn& config_for,
    exec::ThreadPool* pool) {
  obs::Span span("attack.all_components");
  const std::size_t n = sets.size() * 2;
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<ComponentResult> results(n);
  std::vector<std::size_t> accepted(n);
  QualityReport report;
  std::string error;
  // Each component copies its columns out of its slot's set; no gate.
  const auto prepare = [&sets](const ComponentIndex& ci, ComponentDataset& ds,
                               QualityReport& rep) -> std::string {
    const sca::TraceSet& set = sets[ci.slot];
    if (set.traces.empty()) return "no records for slot " + std::to_string(ci.slot);
    try {
      ds = build_component_dataset(set, ci.imag);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    rep.total = rep.accepted = set.traces.size();
    return {};
  };
  (void)fan_out(sets.size(), prepare, config_for, pool, all, results, accepted, report, error);
  return results;
}

bool attack_components_gated(const std::string& archive_path, const QualityConfig& gate,
                             const ComponentConfigFn& config_for, exec::ThreadPool* pool,
                             std::span<const std::size_t> components,
                             std::vector<ComponentResult>& results,
                             std::vector<std::size_t>& accepted_traces,
                             QualityReport* quality, std::string* error) {
  obs::Span span("attack.components.gated");
  tracestore::ArchiveReader reader;
  if (!reader.open(archive_path)) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  const std::size_t hn = reader.meta().num_slots;
  const std::size_t n = hn * 2;
  if (results.size() != n) results.assign(n, ComponentResult{});
  if (accepted_traces.size() != n) accepted_traces.assign(n, 0);

  // The requested components' unique slots, demultiplexed in ONE scan
  // into one slot matrix each; the fan-out reports out-of-range ids.
  // Ungated, a row keeps only the samples the datasets read.
  std::vector<std::size_t> slots;
  for (const std::size_t idx : components) {
    if (idx < n) slots.push_back(component_index(idx, hn).slot);
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  std::vector<SlotMatrix> matrices;
  {
    obs::Span demux("attack.demux");
    std::string why;
    if (!demux_slots(reader, slots, matrices, /*whole_windows=*/gate.enabled, &why)) {
      if (error != nullptr) *error = "failed to demux archive records: " + why;
      return false;
    }
    obs::MetricsRegistry::global().counter("attack.archive.scans").add(1);
    std::size_t records = 0;
    std::size_t bytes = 0;
    for (const SlotMatrix& m : matrices) {
      records += m.rows;
      bytes += m.resident_bytes();
    }
    demux.note("records", records);
    demux.note("slots", matrices.size());
    demux.note("resident_mib", (bytes + (std::size_t{1} << 20) - 1) >> 20);
  }

  // The gate screens each slot once, in place, before the fan-out; each
  // requested component of the slot then adds the slot's report, so the
  // aggregate counts every component's traces as a per-component screen
  // would.
  struct Slot {
    const SlotMatrix* m = nullptr;
    QualityReport rep;
  };
  std::vector<Slot> by_slot(hn);
  for (const SlotMatrix& m : matrices) by_slot[m.slot].m = &m;
  const unsigned jitter_max = reader.meta().jitter_max;
  const auto screen = [&](exec::ChunkRange r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      by_slot[matrices[i].slot].rep = screen_slot(matrices[i], gate, jitter_max);
    }
  };
  if (gate.enabled) {
    obs::Span screen_span("attack.screen");
    exec::parallel_for_chunks(pool, matrices.size(), matrices.size(), screen);
  } else {
    screen({0, matrices.size()}, 0);
  }

  const auto prepare = [&by_slot](const ComponentIndex& ci, ComponentDataset& ds,
                                  QualityReport& rep) -> std::string {
    const Slot& s = by_slot[ci.slot];
    if (s.rep.total == 0) return "no records for slot " + std::to_string(ci.slot);
    if (s.m->rows == 0) {
      return "quality gate rejected every trace of slot " + std::to_string(ci.slot);
    }
    ds = component_dataset(*s.m, ci.imag);
    rep = s.rep;
    return {};
  };
  QualityReport total;
  std::string first_error;
  const bool ok = fan_out(hn, prepare, config_for, pool, components, results, accepted_traces,
                          total, first_error);
  if (quality != nullptr) *quality = total;
  if (!ok && error != nullptr) *error = first_error;
  return ok;
}

}  // namespace fd::attack

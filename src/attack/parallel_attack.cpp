#include "attack/parallel_attack.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace fd::attack {

namespace {

// The one component fan-out. sets[s] holds slot s (hn slots; only the
// slots of `components` need records). Each listed component screens
// its slot's set through the gate -- a private copy when the gate is
// on, the shared set in place when it is off (screen_trace_set is then
// a no-op) -- and attacks it. A bad id, an empty slot or a slot the
// gate emptied records the first error and skips that component; the
// others still run. One component per chunk: component attacks are the
// coarse unit of work (seconds each at paper sizes), so finer chunking
// buys nothing and per-index chunks keep the static plan balanced.
bool fan_out(const std::vector<sca::TraceSet>& sets, const QualityConfig& gate,
             unsigned jitter_max, const ComponentConfigFn& config_for,
             exec::ThreadPool* pool, std::span<const std::size_t> components,
             std::vector<ComponentResult>& results,
             std::vector<std::size_t>& accepted_traces, QualityReport& total,
             std::string& error) {
  const std::size_t hn = sets.size();
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
      if (sets[ci.slot].traces.empty()) {
        fail("no records for slot " + std::to_string(ci.slot));
        continue;
      }
      sca::TraceSet screened;
      const sca::TraceSet* set = &sets[ci.slot];
      QualityReport rep;
      if (gate.enabled) {
        screened = *set;
        rep = screen_trace_set(screened, gate, jitter_max);
        set = &screened;
      } else {
        rep.total = rep.accepted = set->traces.size();
      }
      if (set->traces.empty()) {
        fail("quality gate rejected every trace of slot " + std::to_string(ci.slot));
        continue;
      }
      const ComponentDataset ds = build_component_dataset(*set, ci.imag);
      results[idx] = attack_component(ds, config_for(ci));
      accepted_traces[idx] = set->traces.size();
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
  (void)fan_out(sets, QualityConfig{}, 0, config_for, pool, all, results, accepted, report,
                error);
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
  // and filed by slot; the fan-out reports out-of-range ids.
  std::vector<std::size_t> slots;
  for (const std::size_t idx : components) {
    if (idx < n) slots.push_back(component_index(idx, hn).slot);
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  obs::MetricsRegistry::global().counter("attack.archive.scans").add(1);
  std::vector<sca::TraceSet> loaded;
  if (!sca::load_trace_sets_for(reader, slots, loaded)) {
    if (error != nullptr) *error = "failed to demux archive records";
    return false;
  }
  std::vector<sca::TraceSet> sets(hn);
  for (sca::TraceSet& set : loaded) sets[set.slot] = std::move(set);

  QualityReport total;
  std::string first_error;
  const bool ok = fan_out(sets, gate, reader.meta().jitter_max, config_for, pool, components,
                          results, accepted_traces, total, first_error);
  if (quality != nullptr) *quality = total;
  if (!ok && error != nullptr) *error = first_error;
  return ok;
}

}  // namespace fd::attack

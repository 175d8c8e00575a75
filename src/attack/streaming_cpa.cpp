#include "attack/streaming_cpa.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "sca/device.h"

namespace fd::attack {

namespace {

namespace ww = sca::window;

// Folds one captured window into the accumulator: one add_trace per
// view, with hypotheses recomputed from that view's known operand. The
// streamed and in-memory paths share this fold so their floating-point
// operation order is identical by construction.
class CpaFold {
 public:
  explicit CpaFold(const StreamingCpaSpec& spec)
      : spec_(spec),
        sharded_(spec.fold_shards > 1),
        engine_(spec.guesses.size(), spec.sample_offsets.size(), spec.kernel),
        hyps_(spec.guesses.size()),
        samps_(spec.sample_offsets.size()) {
    if (spec.guesses.empty() || spec.sample_offsets.empty() || !spec.model) {
      throw std::invalid_argument(
          "StreamingCpaSpec: needs guesses, sample offsets and a model");
    }
  }

  void add_window(fpr::Fpr known_re, fpr::Fpr known_im, std::span<const float> samples) {
    bool contributed = false;
    for (unsigned v = 0; v < 2; ++v) {
      const std::size_t block = ww::mul_block_for(spec_.imag_part, v);
      const std::size_t base = ww::mul_base(static_cast<unsigned>(block));
      if (base + ww::kEventsPerMul > samples.size()) continue;  // foreign layout
      const fpr::Fpr known = (block == 0 || block == 3) ? known_re : known_im;
      const KnownOperand k = KnownOperand::from(known);
      if (sharded_) {
        // Deferred fold: buffer the view (compact -- the hypotheses are
        // recomputed per shard from the operand) and fold at take().
        defer_ops_.push_back(k);
        for (std::size_t c = 0; c < spec_.sample_offsets.size(); ++c) {
          defer_samps_.push_back(samples[base + spec_.sample_offsets[c]]);
        }
        contributed = true;
        continue;
      }
      for (std::size_t g = 0; g < spec_.guesses.size(); ++g) {
        hyps_[g] = spec_.model(spec_.guesses[g], k);
      }
      for (std::size_t c = 0; c < spec_.sample_offsets.size(); ++c) {
        samps_[c] = samples[base + spec_.sample_offsets[c]];
      }
      engine_.add_trace(hyps_, samps_);
      contributed = true;
    }
    // A window whose layout had no room for either view folded nothing:
    // it must not advance attack.cpa.windows or the snapshot cadence.
    if (!contributed) return;
    ++windows_;
    if (sharded_) return;  // no engine state mid-scan: final snapshot only
    if (spec_.snapshot_every != 0 && windows_ % spec_.snapshot_every == 0) {
      snapshot();
      snapshot_emitted_ = true;
    } else if (spec_.snapshot_every != 0) {
      snapshot_emitted_ = false;
    }
  }

  [[nodiscard]] CpaEngine take() {
    if (sharded_) fold_deferred();
    // Final snapshot so the end state is always on record, even when
    // the trace count is not a multiple of the cadence.
    if (spec_.snapshot_every != 0 && !snapshot_emitted_ && windows_ > 0) snapshot();
    obs::MetricsRegistry::global().counter("attack.cpa.windows").add(windows_);
    return std::move(engine_);
  }

 private:
  // Reads the accumulator (never mutates it) and emits one
  // "cpa.snapshot" event: the guess-rank state after `windows_` traces.
  void snapshot() const {
    if (obs::sink() == nullptr) return;
    const std::vector<std::size_t> order = engine_.ranking();
    const double top1_r = engine_.peak(order[0]);
    const double top2_r = order.size() > 1 ? engine_.peak(order[1]) : top1_r;
    std::int64_t truth_rank = -1;
    double truth_r = 0.0;
    if (spec_.truth_guess >= 0) {
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        if (spec_.guesses[order[pos]] == static_cast<std::uint32_t>(spec_.truth_guess)) {
          truth_rank = static_cast<std::int64_t>(pos);
          truth_r = engine_.peak(order[pos]);
          break;
        }
      }
    }
    obs::event("cpa.snapshot")
        .with("label", spec_.label)
        .with("traces", windows_)
        .with("guesses", spec_.guesses.size())
        .with("top1_guess", spec_.guesses[order[0]])
        .with("top1_r", top1_r)
        .with("top2_r", top2_r)
        .with("margin", top1_r - top2_r)
        .with("truth_rank", truth_rank)
        .with("truth_r", truth_r)
        .emit();
  }

  // Folds the deferred view stream: exec::static_chunks cuts it into
  // fold_shards contiguous shards, each shard folds on its own worker
  // into its own CpaSums (private kernel, canonical in-shard order),
  // and parallel_reduce merges the shard folds in shard-index order
  // through merge_cpa_sums. The merge tree depends only on
  // (stream length, fold_shards), never on the pool or timing, so the
  // result is bit-identical at any worker count.
  void fold_deferred() {
    const std::size_t gg = spec_.guesses.size();
    const std::size_t ss = spec_.sample_offsets.size();
    const std::size_t total = defer_ops_.size();
    if (total == 0) return;
    CpaSums merged = exec::parallel_reduce(
        spec_.fold_pool, total, spec_.fold_shards, CpaSums{},
        [&](exec::ChunkRange r) {
          CpaSums sums;
          CpaBatchKernel kernel(gg, ss, spec_.kernel);
          std::vector<double> hyps(gg);
          for (std::size_t i = r.begin; i < r.end; ++i) {
            for (std::size_t g = 0; g < gg; ++g) {
              hyps[g] = spec_.model(spec_.guesses[g], defer_ops_[i]);
            }
            kernel.add_trace(sums, hyps,
                             std::span<const float>(defer_samps_.data() + i * ss, ss));
          }
          kernel.flush(sums);
          return sums;
        },
        [](CpaSums acc, CpaSums src) {
          // Shards share the spec's shape, so this cannot fire.
          if (!merge_cpa_sums(acc, src)) {
            throw std::invalid_argument("CpaFold: shard folds differ in shape");
          }
          return acc;
        });
    engine_ = CpaEngine(std::move(merged), spec_.kernel);
    defer_ops_.clear();
    defer_samps_.clear();
  }

  const StreamingCpaSpec& spec_;
  bool sharded_ = false;
  CpaEngine engine_;
  std::vector<double> hyps_;
  std::vector<float> samps_;
  std::vector<KnownOperand> defer_ops_;  // deferred views (sharded fold)
  std::vector<float> defer_samps_;       // views x S, row-contiguous
  std::size_t windows_ = 0;
  bool snapshot_emitted_ = false;
};

}  // namespace

void demux_archive(tracestore::ArchiveReader& reader, std::span<const DemuxTarget> targets,
                   const WindowSink& sink) {
  std::size_t max_slot = 0;
  for (const DemuxTarget& t : targets) max_slot = std::max(max_slot, t.slot);
  // Slot -> interested target indices (targets may share a slot).
  std::vector<std::vector<std::size_t>> by_slot(max_slot + 1);
  for (std::size_t i = 0; i < targets.size(); ++i) by_slot[targets[i].slot].push_back(i);

  // The scan can stop early only once every target has a budget and
  // has used it up.
  const bool all_budgeted = std::all_of(targets.begin(), targets.end(),
                                        [](const DemuxTarget& t) { return t.max_traces != 0; });
  std::size_t unsaturated = targets.size();
  std::vector<std::size_t> used(targets.size(), 0);

  reader.rewind();
  if (!targets.empty()) obs::MetricsRegistry::global().counter("attack.archive.scans").add(1);
  tracestore::TraceRecord rec;
  while ((!all_budgeted || unsaturated > 0) && reader.next(rec)) {
    if (rec.slot >= by_slot.size()) continue;
    for (const std::size_t i : by_slot[rec.slot]) {
      const std::size_t budget = targets[i].max_traces;
      if (budget != 0 && used[i] == budget) continue;
      sink(i, fpr::Fpr::from_bits(rec.known_re_bits), fpr::Fpr::from_bits(rec.known_im_bits),
           rec.samples);
      if (++used[i] == budget) --unsaturated;
    }
  }
}

CpaEngine run_cpa_streaming(tracestore::ArchiveReader& reader,
                            const StreamingCpaSpec& spec) {
  return std::move(run_cpa_streaming_multi(reader, {&spec, 1}).front());
}

std::vector<CpaEngine> run_cpa_streaming_multi(tracestore::ArchiveReader& reader,
                                               std::span<const StreamingCpaSpec> specs) {
  // One fold per spec; CpaFold pins a reference to its spec, so folds
  // live behind stable pointers.
  std::vector<std::unique_ptr<CpaFold>> folds;
  std::vector<DemuxTarget> targets;
  for (const auto& spec : specs) {
    folds.push_back(std::make_unique<CpaFold>(spec));
    targets.push_back({spec.slot, spec.max_traces});
  }
  demux_archive(reader, targets,
                [&](std::size_t i, fpr::Fpr re, fpr::Fpr im, std::span<const float> samples) {
                  folds[i]->add_window(re, im, samples);
                });
  std::vector<CpaEngine> out;
  out.reserve(specs.size());
  for (auto& fold : folds) out.push_back(fold->take());
  return out;
}

CpaEngine run_cpa_inmemory(const sca::TraceSet& set, const StreamingCpaSpec& spec) {
  CpaFold fold(spec);
  const std::size_t limit = spec.max_traces == 0
                                ? set.traces.size()
                                : std::min(spec.max_traces, set.traces.size());
  for (std::size_t t = 0; t < limit; ++t) {
    const auto& ct = set.traces[t];
    fold.add_window(ct.known_re, ct.known_im, ct.trace.samples);
  }
  return fold.take();
}

}  // namespace fd::attack

#include "distinguisher/streaming.h"

#include <stdexcept>

#include "attack/streaming_cpa.h"
#include "obs/metrics.h"
#include "sca/device.h"

namespace fd::distinguisher {

namespace {

namespace ww = sca::window;
using attack::KnownOperand;

// The per-window fold, mirroring streaming_cpa.cpp's CpaFold: one
// observation per view, hypotheses rebuilt from that view's known
// operand. Layout adapts to the distinguisher: stride 1 broadcasts one
// hypothesis per guess across the sample columns (CPA), stride C feeds
// per-column predictions (profiled backends).
class Fold {
 public:
  Fold(const StreamingSpec& spec, std::unique_ptr<Distinguisher> dist)
      : spec_(spec),
        dist_(std::move(dist)),
        hyps_(spec.guesses.size() * dist_->hyp_stride()),
        samps_(spec.sample_offsets.size()) {
    if (spec.guesses.empty() || spec.sample_offsets.empty() || !spec.model) {
      throw std::invalid_argument("StreamingSpec: needs guesses, sample offsets and a model");
    }
    if (dist_->num_guesses() != spec.guesses.size()) {
      throw std::invalid_argument("StreamingSpec: distinguisher guess count differs");
    }
    if (dist_->hyp_stride() != 1 && dist_->hyp_stride() != spec.sample_offsets.size()) {
      throw std::invalid_argument("StreamingSpec: hyp_stride is neither 1 nor the offset count");
    }
  }

  void add_window(fpr::Fpr known_re, fpr::Fpr known_im, std::span<const float> samples) {
    const std::size_t stride = dist_->hyp_stride();
    const std::size_t c_ = spec_.sample_offsets.size();
    bool contributed = false;
    for (unsigned v = 0; v < 2; ++v) {
      const std::size_t block = ww::mul_block_for(spec_.imag_part, v);
      const std::size_t base = ww::mul_base(static_cast<unsigned>(block));
      if (base + ww::kEventsPerMul > samples.size()) continue;  // foreign layout
      const fpr::Fpr known = (block == 0 || block == 3) ? known_re : known_im;
      const KnownOperand k = KnownOperand::from(known);
      for (std::size_t g = 0; g < spec_.guesses.size(); ++g) {
        if (stride == 1) {
          hyps_[g] = spec_.model(spec_.guesses[g], k, spec_.sample_offsets[0]);
        } else {
          for (std::size_t ci = 0; ci < c_; ++ci) {
            hyps_[g * c_ + ci] =
                spec_.model(spec_.guesses[g], k, spec_.sample_offsets[ci]);
          }
        }
      }
      for (std::size_t ci = 0; ci < c_; ++ci) {
        samps_[ci] = samples[base + spec_.sample_offsets[ci]];
      }
      const TraceObservation obs{hyps_, samps_};
      dist_->observe({&obs, 1});
      contributed = true;
    }
    if (contributed) ++windows_;
  }

  [[nodiscard]] std::unique_ptr<Distinguisher> take() {
    obs::MetricsRegistry::global().counter("attack.distinguisher.windows").add(windows_);
    return std::move(dist_);
  }

 private:
  const StreamingSpec& spec_;
  std::unique_ptr<Distinguisher> dist_;
  std::vector<double> hyps_;
  std::vector<float> samps_;
  std::size_t windows_ = 0;
};

}  // namespace

std::unique_ptr<Distinguisher> run_streaming(tracestore::ArchiveReader& reader,
                                             const StreamingSpec& spec,
                                             const DistinguisherFactory& make) {
  return std::move(run_streaming_multi(reader, {&spec, 1}, make).front());
}

std::vector<std::unique_ptr<Distinguisher>> run_streaming_multi(
    tracestore::ArchiveReader& reader, std::span<const StreamingSpec> specs,
    const DistinguisherFactory& make) {
  std::vector<std::unique_ptr<Fold>> folds;
  std::vector<attack::DemuxTarget> targets;
  for (const auto& spec : specs) {
    folds.push_back(std::make_unique<Fold>(spec, make(spec)));
    targets.push_back({spec.slot, spec.max_traces});
  }
  attack::demux_archive(
      reader, targets,
      [&](std::size_t i, fpr::Fpr re, fpr::Fpr im, std::span<const float> samples) {
        folds[i]->add_window(re, im, samples);
      });
  std::vector<std::unique_ptr<Distinguisher>> out;
  out.reserve(folds.size());
  for (auto& fold : folds) out.push_back(fold->take());
  return out;
}

}  // namespace fd::distinguisher

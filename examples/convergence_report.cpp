// Telemetry end to end: run a fixed-seed mini-campaign with a JSONL
// sink installed, attack a few components with rank-evolution snapshots
// enabled, and leave behind a telemetry file that fd-report renders as
// per-coefficient convergence tables (the paper's Fig. 4 e-h, offline).
//
//   ./convergence_report [logn] [traces] [out.jsonl] [threads]
//   ./fd-report out.jsonl
//   ./fd-report out.jsonl --label slot1.re
//
// With threads > 1 the per-component analyses fan out across an exec
// pool: the numbers are bit-identical (each component's CPA fold stays
// serial), only the interleaving of telemetry lines in out.jsonl
// changes -- fd-report groups by label, so its tables do not.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "attack/extend_prune.h"
#include "attack/hypothesis.h"
#include "attack/streaming_cpa.h"
#include "common/rng.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "falcon/falcon.h"
#include "obs/obs.h"
#include "sca/campaign.h"

using namespace fd;

int main(int argc, char** argv) {
  const unsigned logn = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  const std::size_t traces = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 400;
  const std::string out_path = argc > 3 ? argv[3] : "convergence.jsonl";
  const std::size_t threads = argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 1;

  if (!FD_OBS_ENABLED) {
    std::printf("built with FD_OBS=OFF: telemetry compiles to no-ops, the attack\n"
                "still runs but %s will stay empty.\n", out_path.c_str());
  }

  obs::JsonLinesSink jsonl_sink(out_path);
  if (!jsonl_sink.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", out_path.c_str(),
                 jsonl_sink.error().c_str());
    return 2;
  }
  obs::ScopedTelemetrySink scope(&jsonl_sink);

  std::printf("=== convergence telemetry demo (FALCON-%u, %zu traces) ===\n",
              1U << logn, traces);
  ChaCha20Prng rng("victim key seed");
  const auto victim = falcon::keygen(logn, rng);

  sca::CampaignConfig camp;
  camp.num_traces = traces;
  camp.device.noise_sigma = 2.0;
  camp.seed = 0xC04F;
  camp.progress_every = traces / 4 == 0 ? 1 : traces / 4;
  camp.progress = [](std::size_t done, std::size_t total) {
    std::printf("  campaign: %zu / %zu signing queries\n", done, total);
  };
  const auto sets = sca::run_full_campaign(victim.sk, camp);

  const std::size_t hn = victim.sk.params.n >> 1;
  const std::size_t demo_slots[] = {0, 1, hn - 1};
  struct DemoJob {
    std::size_t slot = 0;
    bool imag = false;
  };
  std::vector<DemoJob> jobs;
  for (const std::size_t slot : demo_slots) {
    for (const bool imag : {false, true}) jobs.push_back({slot, imag});
  }

  struct DemoResult {
    std::string label;
    std::uint32_t top_guess = 0;
    std::uint32_t truth_y0 = 0;
    double peak = 0.0;
    std::uint64_t res_bits = 0;
    std::uint64_t truth_bits = 0;
  };
  std::unique_ptr<exec::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<exec::ThreadPool>(threads);
  const std::vector<DemoResult> results =
      exec::parallel_map<DemoResult>(pool.get(), jobs.size(), [&](std::size_t j) {
        const auto [slot, imag] = jobs[j];
        DemoResult out;
        out.label = "slot" + std::to_string(slot) + (imag ? ".im" : ".re");
        const fpr::Fpr truth = victim.sk.b01[slot + (imag ? hn : 0)];
        const attack::KnownOperand split = attack::KnownOperand::from(truth);
        out.truth_y0 = split.y0;
        out.truth_bits = truth.bits();

        // Rank-evolution snapshots of the low-mantissa *prune* CPA (the
        // z1a addition): unlike the multiplication, it is not
        // shift-invariant, so the truth's rank converges to 0 as traces
        // accumulate -- the Fig. 4 e-h curve shape. Candidates are the
        // truth's shift-family plus random fillers.
        attack::StreamingCpaSpec spec;
        spec.imag_part = imag;
        spec.sample_offsets = {sca::window::kOffAccZ1a};
        spec.guesses = attack::MantissaCandidates::adversarial(
            split.y0, /*high=*/false, 60, 0xC04F ^ (slot * 2 + imag));
        spec.model = [](std::uint32_t guess, const attack::KnownOperand& k) {
          return attack::hyp_low_add_z1a(guess, k);
        };
        spec.snapshot_every = traces / 8 == 0 ? 1 : traces / 8;
        spec.truth_guess = split.y0;
        spec.label = out.label;
        const attack::CpaEngine eng = attack::run_cpa_inmemory(sets[slot], spec);
        const auto order = eng.ranking();
        out.top_guess = spec.guesses[order[0]];
        out.peak = eng.peak(order[0]);

        // Full extend-and-prune on the same component: ep.phase events.
        attack::ComponentAttackConfig cac;
        cac.obs_label = out.label;
        cac.low_candidates = spec.guesses;
        cac.high_candidates = attack::MantissaCandidates::adversarial(
            split.y1, /*high=*/true, 60, 0xC04F ^ (slot * 5 + imag));
        const attack::ComponentDataset ds = attack::build_component_dataset(sets[slot], imag);
        out.res_bits = attack::attack_component(ds, cac).bits;
        return out;
      });
  for (const auto& r : results) {
    std::printf("  %-10s final top-1 x0 guess 0x%07x (truth 0x%07x)%s, r = %+.4f\n",
                r.label.c_str(), r.top_guess, r.truth_y0,
                r.top_guess == r.truth_y0 ? " CORRECT" : "", r.peak);
    if (r.res_bits != r.truth_bits) {
      std::printf("  %-10s component not exact (0x%016llX vs 0x%016llX)\n", r.label.c_str(),
                  static_cast<unsigned long long>(r.res_bits),
                  static_cast<unsigned long long>(r.truth_bits));
    }
  }

  obs::MetricsRegistry::global().export_to(jsonl_sink);
  jsonl_sink.flush();
  std::printf("\ntelemetry written to %s -- render it with:\n  fd-report %s\n",
              out_path.c_str(), out_path.c_str());
  return 0;
}

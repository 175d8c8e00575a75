#pragma once
// Full key recovery and signature forging (the paper's end goal).
//
// The adversary attacks every component of FFT(-f) (n/2 complex slots,
// real and imaginary part each), inverts the FFT (one-to-one), rounds to
// the integer polynomial f, derives g = h*f mod q (small by
// construction), re-solves the NTRU equation for F and G, rebuilds the
// complete signing key, and signs arbitrary messages that verify under
// the victim's *public* key.
//
// Hypothesis-space note (see DESIGN.md): with empty candidate lists the
// attack enumerates the full 2^25/2^27 spaces per component exactly as
// the paper describes (minutes of CPU per component on one core). The
// default "adversarial candidate" mode evaluates the truth against its
// entire shift-family (the false-positive sources) plus random fillers,
// testing the extend-and-prune logic at full strength in bounded time.

#include <optional>
#include <vector>

#include "attack/extend_prune.h"
#include "distinguisher/types.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"

namespace fd::attack {

struct KeyRecoveryConfig {
  std::size_t num_traces = 2000;
  sca::DeviceConfig device;
  std::size_t extend_top_k = 16;
  // 0 => exhaustive enumeration; otherwise adversarial candidate count.
  std::size_t adversarial_random = 150;
  // CPA kernel batch size (cpa_kernel.h): traces buffered per blocked
  // fold. Part of the result's numerical identity (ULP-level
  // reassociation inside a batch), so it joins the experiment hash;
  // 1 reproduces the exact naive per-trace fold.
  std::size_t cpa_batch = kDefaultCpaBatch;
  std::uint64_t seed = 1;
  // Worker threads for the per-component attack fan-out (src/exec).
  // 1 runs the serial path; any value yields bit-identical results --
  // components are independent and reduced in index order.
  std::size_t threads = 1;
  // Guess-space shards for every phase's StreamingScan inside one
  // component attack (ComponentAttackConfig::cpa_shards). Like
  // `threads` this is a pure wall-clock knob -- the sharded scan is
  // byte-identical to the serial one at any shard/worker count -- so
  // it does NOT join the experiment hash. It DOES travel in the fleet
  // session config so remote workers shard their scans too.
  std::size_t cpa_shards = 1;
  // Distinguisher backend (src/distinguisher). kCpa leaves `scorer`
  // null and runs the built-in CPA staging unchanged; profiled
  // backends carry the scorer built by make_component_scorer from
  // exactly these selection fields (which therefore join the
  // experiment hash and the fleet session config).
  distinguisher::BackendSelection backend;
  std::shared_ptr<const ComponentScorer> scorer;
};

// The candidate-mode adversary's per-component attack config -- shared
// by recover_key/recover_row_poly and the RecoveryPipeline so both
// attack exactly the same hypothesis spaces. Pure function of
// (victim key, config, row, component index): safe to call from worker
// threads.
[[nodiscard]] ComponentAttackConfig component_attack_config(const falcon::SecretKey& victim_sk,
                                                            const KeyRecoveryConfig& config,
                                                            unsigned row, std::size_t slot,
                                                            bool imag);

// Component results -> row polynomial: exponent-alias repair (greedy
// descent on magnitude excess then integrality, see DESIGN.md), invFFT,
// negate-and-round. `results` is in component-index order (re parts of
// all slots, then im parts) and is updated in place by the repair.
struct RowAssembly {
  std::vector<fpr::Fpr> recovered;  // FFT-domain components, post-repair
  std::vector<std::int32_t> poly;   // the integer row polynomial
};
[[nodiscard]] RowAssembly assemble_row(std::vector<ComponentResult>& results, unsigned logn,
                                       unsigned row);

struct KeyRecoveryResult {
  std::size_t components_total = 0;
  std::size_t components_correct = 0;  // exact 64-bit matches
  std::vector<std::int32_t> recovered_f;
  std::vector<std::int32_t> derived_g;
  bool f_exact = false;        // recovered f equals the victim's f
  bool ntru_solved = false;    // F, G re-derived from (f, g)
  bool forgery_verified = false;  // forged signature accepted by pk
};

// Runs the complete attack against a victim key (the victim secret is
// used only to run the device and, in candidate mode, to build the
// adversarial hypothesis sets). This is the unarchived reference: an
// in-memory campaign and fan-out, then the assemble -> score -> forge
// tail of the recovery driver (recovery_pipeline.cpp, where it and
// recover_row_poly are defined).
[[nodiscard]] KeyRecoveryResult recover_key(const falcon::KeyPair& victim,
                                            const KeyRecoveryConfig& config);

// Attacks a single basis row: row 0 recovers f (from the FFT(-f)
// windows), row 1 recovers F (from the FFT(-F) windows -- the second
// multiplication of Alg. 2 line 3). Recovering the F row independently
// cross-validates the attack: together with f and the public key it must
// satisfy the NTRU equation f*G - g*F = q.
struct RowRecoveryResult {
  std::size_t components_total = 0;
  std::size_t components_correct = 0;
  std::vector<std::int32_t> poly;  // f (row 0) or F (row 1)
  bool exact = false;              // equals the victim's polynomial
};
[[nodiscard]] RowRecoveryResult recover_row_poly(const falcon::KeyPair& victim,
                                                 const KeyRecoveryConfig& config, unsigned row);

// Given a recovered f, completes the attack: derives g from the public
// key, solves NTRU, expands a signing key, and checks a forged signature
// against the victim public key. Returns the forged secret key on success,
// nullopt when f is wrong or f or pk.h is not of length pk.params.n.
[[nodiscard]] std::optional<falcon::SecretKey> forge_key(std::span<const std::int32_t> f,
                                                         const falcon::PublicKey& pk);

}  // namespace fd::attack

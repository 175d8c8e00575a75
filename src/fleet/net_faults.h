#pragma once
// Deterministic network-fault injection for the fleet transport.
//
// The socket analogue of sca::FaultPlan (DESIGN.md section 7): every
// fault decision is a stateless SplitMix64 draw over (seed, domain tag,
// connection id, per-connection op counter) -- no RNG state, no wall
// clock -- so a hostile network is a pure function of the seed and the
// traffic shape, and the coordinator's recovery machinery can be pinned
// against it: results under an armed plan must be byte-identical to a
// quiet network (the PR's load-bearing pin).
//
// Faults modelled, all at the byte-transport layer (net_faults wraps a
// Transport; the frame layer above sees only their SYMPTOMS):
//   - mid-frame disconnect: a write emits a prefix of the frame and the
//     connection dies; the peer's FrameDecoder latches at the next
//     header or the reader sees EOF.
//   - read disconnect: a read surfaces EOF out of nowhere.
//   - stalls: a read or write sleeps stall_ms first (exercises write
//     deadlines and heartbeat-timeout reap).
//   - short writes: a frame leaves in several small sends (exercises
//     reassembly; semantically lossless).
//   - byte corruption: one byte of a write or read is flipped. Protocol
//     v4 frames carry a payload CRC, so any flip latches the receiving
//     decoder ("latched byte corruption") -- corruption is always a
//     detected connection failure, never silent data damage.
//   - connect refusal: a dial fails; refuse_after_tasks drops an
//     endpoint's link with its N-th task dispatch in flight and
//     blacklists the endpoint, the deterministic way a test forces
//     reconnect-budget exhaustion and therefore task reassignment.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "fleet/transport.h"

namespace fd::fleet {

struct NetFaultConfig {
  double write_disconnect_rate = 0.0;  // P(mid-frame cut) per write op
  double read_disconnect_rate = 0.0;   // P(spurious EOF) per read op
  double stall_rate = 0.0;             // P(sleep stall_ms) per op
  std::size_t stall_ms = 2;
  double short_write_rate = 0.0;       // P(fragmented send) per write op
  double corrupt_rate = 0.0;           // P(one byte flipped) per op
  double connect_refusal_rate = 0.0;   // P(dial refused) per attempt
  // 0 = off; otherwise an endpoint's link drops with its N-th fresh
  // task dispatch in flight (the task frame never leaves), and every
  // later dial to it is refused (per-endpoint, deterministic).
  std::uint32_t refuse_after_tasks = 0;
  std::uint64_t seed = 0x9E7F;

  [[nodiscard]] bool any() const {
    return write_disconnect_rate > 0.0 || read_disconnect_rate > 0.0 || stall_rate > 0.0 ||
           short_write_rate > 0.0 || corrupt_rate > 0.0 || connect_refusal_rate > 0.0 ||
           refuse_after_tasks > 0;
  }
};

// Stateless draw helpers over the config. `conn` identifies one
// connection (endpoint index and per-endpoint connect ordinal folded in
// by the caller); `op` is that connection's monotonically increasing
// read or write operation counter.
class NetFaultPlan {
 public:
  NetFaultPlan() = default;
  explicit NetFaultPlan(const NetFaultConfig& cfg) : cfg_(cfg) {}

  [[nodiscard]] const NetFaultConfig& config() const { return cfg_; }
  [[nodiscard]] bool enabled() const { return cfg_.any(); }

  [[nodiscard]] bool write_disconnects(std::uint64_t conn, std::uint64_t op) const;
  [[nodiscard]] bool read_disconnects(std::uint64_t conn, std::uint64_t op) const;
  [[nodiscard]] bool stalls(std::uint64_t conn, std::uint64_t op, bool read) const;
  [[nodiscard]] bool short_write(std::uint64_t conn, std::uint64_t op) const;
  [[nodiscard]] bool corrupts(std::uint64_t conn, std::uint64_t op, bool read) const;
  // Which byte of an `len`-byte buffer the corruption flips, and the cut
  // point of a mid-frame disconnect (always a strict prefix).
  [[nodiscard]] std::size_t corrupt_pos(std::uint64_t conn, std::uint64_t op,
                                        std::size_t len) const;
  [[nodiscard]] std::size_t cut_len(std::uint64_t conn, std::uint64_t op,
                                    std::size_t len) const;
  [[nodiscard]] bool connect_refused(std::uint64_t endpoint, std::uint64_t prior_connects,
                                     std::uint64_t attempt) const;
  // True for the dispatch that blacklists an endpoint: its
  // refuse_after_tasks-th (counting from 1).
  [[nodiscard]] bool refuses_after_task(std::uint64_t dispatches) const {
    return cfg_.refuse_after_tasks > 0 && dispatches == cfg_.refuse_after_tasks;
  }

 private:
  NetFaultConfig cfg_;
};

// Transport wrapper applying the plan to every operation. Owns the
// inner transport; `conn` is the stable connection id for the draws.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, NetFaultPlan plan, std::uint64_t conn)
      : inner_(std::move(inner)), plan_(plan), conn_(conn) {}

  [[nodiscard]] int poll_fd() const override { return inner_->poll_fd(); }
  [[nodiscard]] std::ptrdiff_t read_some(std::uint8_t* buf, std::size_t cap) override;
  [[nodiscard]] bool write_all(std::span<const std::uint8_t> bytes) override;
  void shutdown_write() override { inner_->shutdown_write(); }
  void close_transport() override { inner_->close_transport(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe() + "+faults";
  }

 private:
  std::unique_ptr<Transport> inner_;
  NetFaultPlan plan_;
  std::uint64_t conn_ = 0;
  std::uint64_t read_op_ = 0;
  std::uint64_t write_op_ = 0;
};

// "wdisc=0.05,rdisc=0.02,stall=0.05,stallms=2,short=0.3,corrupt=0.02,
//  refuse=0.1,refuse_after=2,seed=0x9E7F" -- comma key=value, any
// subset. False + `error` on unknown keys or unparsable values.
[[nodiscard]] bool parse_net_fault_plan(const std::string& spec, NetFaultConfig& out,
                                        std::string& error);

}  // namespace fd::fleet

#include "fleet/net_faults.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "exec/seed_split.h"

namespace fd::fleet {

namespace {

// Domain-separation tags, one lane per failure mode (the sca::FaultPlan
// idiom -- modes are independent draws off one seed).
enum : std::uint64_t {
  kTagWriteDisc = 0x4E301,
  kTagReadDisc = 0x4E302,
  kTagStallW = 0x4E303,
  kTagStallR = 0x4E304,
  kTagShort = 0x4E305,
  kTagCorruptW = 0x4E306,
  kTagCorruptR = 0x4E307,
  kTagCorruptPos = 0x4E308,
  kTagCutLen = 0x4E309,
  kTagRefuse = 0x4E30A,
  kTagShortLen = 0x4E30B,
};

[[nodiscard]] std::uint64_t draw_bits(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                                      std::uint64_t b = 0) {
  return exec::mix64(exec::mix64(seed ^ exec::mix64(tag)) ^ exec::mix64(a) ^
                     exec::mix64(exec::mix64(b) + 1));
}

[[nodiscard]] double draw_unit(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                               std::uint64_t b = 0) {
  return static_cast<double>(draw_bits(seed, tag, a, b) >> 11) * 0x1.0p-53;
}

}  // namespace

bool NetFaultPlan::write_disconnects(std::uint64_t conn, std::uint64_t op) const {
  return cfg_.write_disconnect_rate > 0.0 &&
         draw_unit(cfg_.seed, kTagWriteDisc, conn, op) < cfg_.write_disconnect_rate;
}

bool NetFaultPlan::read_disconnects(std::uint64_t conn, std::uint64_t op) const {
  return cfg_.read_disconnect_rate > 0.0 &&
         draw_unit(cfg_.seed, kTagReadDisc, conn, op) < cfg_.read_disconnect_rate;
}

bool NetFaultPlan::stalls(std::uint64_t conn, std::uint64_t op, bool read) const {
  return cfg_.stall_rate > 0.0 &&
         draw_unit(cfg_.seed, read ? kTagStallR : kTagStallW, conn, op) < cfg_.stall_rate;
}

bool NetFaultPlan::short_write(std::uint64_t conn, std::uint64_t op) const {
  return cfg_.short_write_rate > 0.0 &&
         draw_unit(cfg_.seed, kTagShort, conn, op) < cfg_.short_write_rate;
}

bool NetFaultPlan::corrupts(std::uint64_t conn, std::uint64_t op, bool read) const {
  return cfg_.corrupt_rate > 0.0 &&
         draw_unit(cfg_.seed, read ? kTagCorruptR : kTagCorruptW, conn, op) < cfg_.corrupt_rate;
}

std::size_t NetFaultPlan::corrupt_pos(std::uint64_t conn, std::uint64_t op,
                                      std::size_t len) const {
  if (len == 0) return 0;
  return static_cast<std::size_t>(draw_bits(cfg_.seed, kTagCorruptPos, conn, op) % len);
}

std::size_t NetFaultPlan::cut_len(std::uint64_t conn, std::uint64_t op, std::size_t len) const {
  if (len <= 1) return 0;
  // Strict prefix: at least 0, at most len - 1 bytes escape.
  return static_cast<std::size_t>(draw_bits(cfg_.seed, kTagCutLen, conn, op) % len);
}

bool NetFaultPlan::connect_refused(std::uint64_t endpoint, std::uint64_t prior_connects,
                                   std::uint64_t attempt) const {
  return cfg_.connect_refusal_rate > 0.0 &&
         draw_unit(cfg_.seed, kTagRefuse, endpoint, (prior_connects << 16) ^ attempt) <
             cfg_.connect_refusal_rate;
}

// --- FaultyTransport -------------------------------------------------------

std::ptrdiff_t FaultyTransport::read_some(std::uint8_t* buf, std::size_t cap) {
  if (!plan_.enabled()) return inner_->read_some(buf, cap);
  const std::uint64_t op = read_op_++;
  if (plan_.stalls(conn_, op, /*read=*/true)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.config().stall_ms));
  }
  if (plan_.read_disconnects(conn_, op)) {
    inner_->close_transport();
    return 0;  // spurious EOF
  }
  const std::ptrdiff_t k = inner_->read_some(buf, cap);
  if (k > 0 && plan_.corrupts(conn_, op, /*read=*/true)) {
    buf[plan_.corrupt_pos(conn_, op, static_cast<std::size_t>(k))] ^= 0x20;
  }
  return k;
}

bool FaultyTransport::write_all(std::span<const std::uint8_t> bytes) {
  if (!plan_.enabled()) return inner_->write_all(bytes);
  const std::uint64_t op = write_op_++;
  if (plan_.stalls(conn_, op, /*read=*/false)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.config().stall_ms));
  }
  if (plan_.write_disconnects(conn_, op)) {
    const std::size_t cut = plan_.cut_len(conn_, op, bytes.size());
    if (cut > 0) (void)inner_->write_all(bytes.first(cut));  // mid-frame prefix escapes
    inner_->close_transport();
    return false;
  }
  std::vector<std::uint8_t> mutated;
  std::span<const std::uint8_t> out = bytes;
  if (plan_.corrupts(conn_, op, /*read=*/false) && !bytes.empty()) {
    mutated.assign(bytes.begin(), bytes.end());
    mutated[plan_.corrupt_pos(conn_, op, mutated.size())] ^= 0x20;
    out = mutated;
  }
  if (plan_.short_write(conn_, op) && out.size() > 1) {
    // Fragment into small pieces; lossless, just exercises reassembly.
    const std::size_t piece =
        1 + static_cast<std::size_t>(draw_bits(plan_.config().seed, kTagShortLen, conn_, op) %
                                     std::max<std::size_t>(out.size() / 3, 1));
    for (std::size_t off = 0; off < out.size(); off += piece) {
      if (!inner_->write_all(out.subspan(off, std::min(piece, out.size() - off)))) return false;
    }
    return true;
  }
  return inner_->write_all(out);
}

// --- CLI spec --------------------------------------------------------------

bool parse_net_fault_plan(const std::string& spec, NetFaultConfig& out, std::string& error) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      error = "net-fault item missing '=': " + item;
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    char* end = nullptr;
    const double d = std::strtod(val.c_str(), &end);
    const bool numeric = end != nullptr && *end == '\0' && end != val.c_str();
    if (key == "seed") {
      out.seed = std::strtoull(val.c_str(), &end, 0);
      if (end == nullptr || *end != '\0') {
        error = "bad net-fault seed: " + val;
        return false;
      }
      continue;
    }
    if (!numeric || d < 0.0) {
      error = "bad net-fault value for " + key + ": " + val;
      return false;
    }
    if (key == "wdisc") {
      out.write_disconnect_rate = d;
    } else if (key == "rdisc") {
      out.read_disconnect_rate = d;
    } else if (key == "stall") {
      out.stall_rate = d;
    } else if (key == "stallms") {
      out.stall_ms = static_cast<std::size_t>(d);
    } else if (key == "short") {
      out.short_write_rate = d;
    } else if (key == "corrupt") {
      out.corrupt_rate = d;
    } else if (key == "refuse") {
      out.connect_refusal_rate = d;
    } else if (key == "refuse_after") {
      out.refuse_after_tasks = static_cast<std::uint32_t>(d);
    } else {
      error = "unknown net-fault key: " + key;
      return false;
    }
  }
  return true;
}

}  // namespace fd::fleet

#include "attack/slot_matrix.h"

#include "fpr/fpr.h"
#include "sca/device.h"

namespace fd::attack {

namespace ww = sca::window;

KnownOperands SlotMatrix::operands(unsigned part) const {
  const auto& k = known[part];
  return {k[kY0], k[kY1], k[kExponent], k[kSign]};
}

std::size_t SlotMatrix::resident_bytes() const {
  std::size_t bytes = samples.size() * sizeof(float);
  for (const auto& part : known) {
    for (const auto& field : part) bytes += field.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

bool demux_slots(tracestore::ArchiveReader& reader, std::span<const std::size_t> slots,
                 std::vector<SlotMatrix>& out, bool whole_windows, std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (!reader.is_open()) return fail("archive is not open");
  const std::size_t hn = reader.meta().num_slots;
  const std::size_t window = reader.meta().samples_per_trace;
  if (window < kDatasetWindowSamples) {
    return fail("archive windows have " + std::to_string(window) + " samples, the attack reads " +
                std::to_string(kDatasetWindowSamples));
  }
  const std::size_t width = whole_windows ? window : kDatasetWindowSamples;
  constexpr std::size_t kUnrouted = static_cast<std::size_t>(-1);
  std::vector<std::size_t> route(hn, kUnrouted);  // slot -> out index
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::size_t s = slots[i];
    if (s >= hn) return fail("slot " + std::to_string(s) + " out of range");
    if (route[s] != kUnrouted) return fail("slot " + std::to_string(s) + " requested twice");
    route[s] = i;
  }
  // A campaign writes every slot once per query, so each slot holds at
  // most its share of the records the file can hold.
  const std::size_t per_slot = hn == 0 ? 0 : (reader.record_bound() + hn - 1) / hn;
  out.assign(slots.size(), SlotMatrix{});
  for (std::size_t i = 0; i < slots.size(); ++i) {
    SlotMatrix& m = out[i];
    m.slot = slots[i];
    m.width = width;
    m.samples.reserve(per_slot * width);
    for (auto& part : m.known) {
      for (auto& field : part) field.reserve(per_slot);
    }
  }

  reader.rewind();
  tracestore::RecordRef rec;
  while (reader.next(rec)) {
    if (rec.slot >= hn || route[rec.slot] == kUnrouted) continue;
    SlotMatrix& m = out[route[rec.slot]];
    m.samples.resize(m.samples.size() + width);
    rec.copy_samples({m.samples.data() + m.rows * width, width});
    const std::uint64_t bits[2] = {rec.known_re_bits, rec.known_im_bits};
    for (unsigned part = 0; part < 2; ++part) {
      const KnownOperand k = KnownOperand::from(fpr::Fpr::from_bits(bits[part]));
      auto& f = m.known[part];
      f[SlotMatrix::kY0].push_back(k.y0);
      f[SlotMatrix::kY1].push_back(k.y1);
      f[SlotMatrix::kExponent].push_back(k.exponent);
      f[SlotMatrix::kSign].push_back(k.sign);
    }
    ++m.rows;
  }
  return true;
}

ComponentDataset component_dataset(const SlotMatrix& m, bool imag_part) {
  ComponentDataset ds;
  ds.num_traces = m.rows;
  for (unsigned v = 0; v < 2; ++v) {
    // Blocks 0 and 3 multiply by Re FFT(c)[slot], blocks 1 and 2 by Im
    // (see build_component_dataset).
    const std::size_t block = ww::mul_block_for(imag_part, v);
    const unsigned part = (block == 0 || block == 3) ? 0 : 1;
    ds.views[v].known = m.operands(part);
    ds.views[v].samples = {m.samples.data() + ww::mul_base(static_cast<unsigned>(block)), m.rows,
                           m.width, 1};
  }
  return ds;
}

}  // namespace fd::attack

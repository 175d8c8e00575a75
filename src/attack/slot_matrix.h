#pragma once
// The attack side's trace store: one slot matrix per requested complex
// slot (DESIGN.md section 26).
//
// An archive scan decodes each record straight into its slot's matrix:
// the window's samples (all of them for the quality gate, else only
// the ones a dataset reads) become one row of a contiguous row-major
// float block, and the two known FFT(c) operands (Re and Im of the
// slot) are split once into the u32 arrays the CPA kernel's hypothesis
// columns read. Both components of the slot (Re and Im) and every phase of
// their attacks read that one copy in place: component_dataset() hands
// out strided column views and operand spans, the quality gate
// (screen_slot) realigns and compacts rows in place, and a StreamingScan
// reads its columns straight from the block. No record is held as its
// own heap object and no sample is held twice.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attack/extend_prune.h"
#include "tracestore/archive.h"

namespace fd::attack {

struct SlotMatrix {
  // Known-operand fields, in KnownOperands order.
  enum Field : unsigned { kY0 = 0, kY1 = 1, kExponent = 2, kSign = 3 };

  std::size_t slot = 0;
  std::size_t width = 0;  // samples kept per row: a prefix of each window
  std::size_t rows = 0;   // traces, in archive order
  std::vector<float> samples;  // rows x width; row t: trace t's window (prefix)
  // known[part][field][t]: part 0 splits Re FFT(c)[slot], part 1 Im.
  std::vector<std::uint32_t> known[2][4];

  [[nodiscard]] std::span<float> row(std::size_t t) { return {samples.data() + t * width, width}; }
  [[nodiscard]] KnownOperands operands(unsigned part) const;
  // Bytes of samples and operands held.
  [[nodiscard]] std::size_t resident_bytes() const;
};

// ONE rewind+scan of `reader` fills out[i] with slots[i]'s records in
// archive order: whole windows, which the quality gate screens, or with
// `whole_windows` false only the first kDatasetWindowSamples a
// ComponentDataset reads. Slots must be unique and in range, and the
// archive's windows at least kDatasetWindowSamples long; otherwise
// returns false with `error` set, before scanning. Each slot's buffers
// are reserved from the file size up front, so an archive that holds
// every slot equally often (any campaign's) fills them with no
// reallocation.
[[nodiscard]] bool demux_slots(tracestore::ArchiveReader& reader,
                               std::span<const std::size_t> slots, std::vector<SlotMatrix>& out,
                               bool whole_windows, std::string* error = nullptr);

// The dataset of the slot's real (imag_part=false) or imaginary part,
// viewing `m` in place; `m` must outlive it and stay unchanged.
[[nodiscard]] ComponentDataset component_dataset(const SlotMatrix& m, bool imag_part);

}  // namespace fd::attack

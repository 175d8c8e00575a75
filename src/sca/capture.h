#pragma once
// Leakage-event capture.
//
// EventWindowRecorder plays the role of the oscilloscope in the paper's
// setup: it is armed on a trigger marker (emitted by the signing code
// around each coefficient-wise multiplication), records the tagged
// intermediate values of the window, and disarms on the trigger end.
// It is a windowed sink (fpr/leakage.h): data events outside its window
// never reach it.
// The raw events are *device-internal* state; only the EmDeviceModel's
// noisy trace synthesis (device.h) is visible to the adversary.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fpr/leakage.h"

namespace fd::sca {

class EventWindowRecorder final : public fpr::LeakageSink {
 public:
  // Records the window whose kTriggerBegin payload equals `slot`, on its
  // `occurrence`-th appearance (a FALCON signing run triggers each slot
  // twice: first for the f row, then for the F row).
  explicit EventWindowRecorder(std::uint64_t slot, unsigned occurrence = 0)
      : LeakageSink(Windowed{}), slot_(slot), want_occurrence_(occurrence) {}

  void on_event(const fpr::LeakageEvent& ev) override {
    if (ev.tag == fpr::LeakageTag::kTriggerBegin) {
      if (ev.value == slot_ && seen_occurrences_++ == want_occurrence_) {
        armed_ = true;
        events_.clear();
        set_window_open(true);
      }
      return;
    }
    if (ev.tag == fpr::LeakageTag::kTriggerEnd) {
      if (armed_ && ev.value == slot_) {
        armed_ = false;
        complete_ = true;
        set_window_open(false);
      }
      return;
    }
    if (armed_) events_.push_back(ev);
  }

  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] const std::vector<fpr::LeakageEvent>& events() const { return events_; }

  void reset() {
    armed_ = false;
    set_window_open(false);
    complete_ = false;
    seen_occurrences_ = 0;
    events_.clear();
  }

 private:
  std::uint64_t slot_;
  unsigned want_occurrence_;
  unsigned seen_occurrences_ = 0;
  bool armed_ = false;
  bool complete_ = false;
  std::vector<fpr::LeakageEvent> events_;
};

// The campaign recorder: keeps, per slot, the most recent window of
// basis row `row` (0: the f-row, even occurrences; 1: the F-row, odd
// ones). A full signing run triggers each slot once per basis row and
// per internal salt retry; the final occurrence of the row is the one
// matching the emitted signature's salt. (The masked signer triggers
// each slot twice per basis row, mask share then key share; `row` then
// picks the share, and the window kept is the F-row's.) Windowed:
// the window is open exactly while `recording_` is set, so data events
// it would drop never reach it.
class LastWindowRecorder final : public fpr::LeakageSink {
 public:
  explicit LastWindowRecorder(std::size_t num_slots, unsigned row = 0)
      : LeakageSink(Windowed{}), row_(row), windows_(num_slots), occurrence_(num_slots, 0) {}

  void on_event(const fpr::LeakageEvent& ev) override {
    if (ev.tag == fpr::LeakageTag::kTriggerBegin) {
      const std::size_t slot = static_cast<std::size_t>(ev.value);
      if (slot < windows_.size()) {
        recording_ = (occurrence_[slot]++ % 2) == row_;
        if (recording_) {
          current_ = slot;
          windows_[slot].clear();
        }
        set_window_open(recording_);
      }
      return;
    }
    if (ev.tag == fpr::LeakageTag::kTriggerEnd) {
      recording_ = false;
      set_window_open(false);
      return;
    }
    if (recording_) windows_[current_].push_back(ev);
  }

  [[nodiscard]] const std::vector<fpr::LeakageEvent>& window(std::size_t slot) const {
    return windows_[slot];
  }

  void start_run() {
    std::fill(occurrence_.begin(), occurrence_.end(), 0U);
    recording_ = false;
    set_window_open(false);
  }

 private:
  unsigned row_;
  std::vector<std::vector<fpr::LeakageEvent>> windows_;
  std::vector<unsigned> occurrence_;
  std::size_t current_ = 0;
  bool recording_ = false;
};

// Records every event of a run (used by the Fig. 3 style trace dumps and
// by whole-algorithm inspection); ungated.
class FullRecorder final : public fpr::LeakageSink {
 public:
  void on_event(const fpr::LeakageEvent& ev) override { events_.push_back(ev); }
  [[nodiscard]] const std::vector<fpr::LeakageEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<fpr::LeakageEvent> events_;
};

}  // namespace fd::sca

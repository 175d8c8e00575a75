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
#include <span>
#include <vector>

#include "fpr/leakage.h"
#include "sca/device.h"

namespace fd::sca {

class EventWindowRecorder final : public fpr::LeakageSink {
 public:
  // Records the window whose kTriggerBegin payload equals `slot`, on its
  // `occurrence`-th appearance (a FALCON signing run triggers each slot
  // twice: first for the f row, then for the F row).
  explicit EventWindowRecorder(std::uint64_t slot, unsigned occurrence = 0)
      : LeakageSink(Windowed{}), slot_(slot), want_occurrence_(occurrence) {}

  void on_event(fpr::LeakageEvent ev) override {
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
//
// Every recorded window goes onto one tape, reused across runs, as an
// (offset, length) pair per slot; a re-triggered slot's new window is
// appended and the old one left unread. The tape is sized for one
// window of window::kEventsPerWindow events per slot and grows whenever
// a run needs more, so no window is ever cut short.
class LastWindowRecorder final : public fpr::LeakageSink {
 public:
  explicit LastWindowRecorder(std::size_t num_slots, unsigned row = 0)
      : LeakageSink(Windowed{}),
        row_(row),
        tape_(num_slots * window::kEventsPerWindow),
        spans_(num_slots),
        occurrence_(num_slots, 0) {}
  // The write cursor points into the tape.
  LastWindowRecorder(const LastWindowRecorder&) = delete;
  LastWindowRecorder& operator=(const LastWindowRecorder&) = delete;

  void on_event(fpr::LeakageEvent ev) override {
    if (ev.tag == fpr::LeakageTag::kTriggerBegin) {
      const std::size_t slot = static_cast<std::size_t>(ev.value);
      if (slot < spans_.size()) {
        close_window();
        recording_ = (occurrence_[slot]++ % 2) == row_;
        if (recording_) {
          current_ = slot;
          spans_[slot] = {used(), 0};
        }
        set_window_open(recording_);
      }
      return;
    }
    if (ev.tag == fpr::LeakageTag::kTriggerEnd) {
      close_window();
      set_window_open(false);
      return;
    }
    if (recording_) {
      if (next_ == end_) grow();
      // Field by field: no 16-byte reload of a freshly stored event.
      next_->tag = ev.tag;
      next_->value = ev.value;
      ++next_;
    }
  }

  // The slot's last recorded window of this run (empty if it has none);
  // valid until the next event or start_run().
  [[nodiscard]] std::span<const fpr::LeakageEvent> window(std::size_t slot) const {
    const Span w = spans_[slot];
    const std::size_t len = recording_ && slot == current_ ? used() - w.offset : w.length;
    return {tape_.data() + w.offset, len};
  }

  // Forgets every window and trigger count of the previous run.
  void start_run() {
    std::fill(occurrence_.begin(), occurrence_.end(), 0U);
    std::fill(spans_.begin(), spans_.end(), Span{});
    next_ = tape_.data();
    recording_ = false;
    set_window_open(false);
  }

 private:
  struct Span {
    std::size_t offset = 0;
    std::size_t length = 0;
  };

  // Events on the tape this run.
  [[nodiscard]] std::size_t used() const { return static_cast<std::size_t>(next_ - tape_.data()); }

  void close_window() {
    if (recording_) spans_[current_].length = used() - spans_[current_].offset;
    recording_ = false;
  }

  void grow() {
    const std::size_t n = used();
    tape_.resize(2 * tape_.size() + window::kEventsPerWindow);
    next_ = tape_.data() + n;
    end_ = tape_.data() + tape_.size();
  }

  unsigned row_;
  std::vector<fpr::LeakageEvent> tape_;
  fpr::LeakageEvent* next_ = tape_.data();  // the tape's first free event
  fpr::LeakageEvent* end_ = tape_.data() + tape_.size();
  std::vector<Span> spans_;
  std::vector<unsigned> occurrence_;
  std::size_t current_ = 0;
  bool recording_ = false;
};

// Records every event of a run (used by the Fig. 3 style trace dumps and
// by whole-algorithm inspection); ungated.
class FullRecorder final : public fpr::LeakageSink {
 public:
  void on_event(fpr::LeakageEvent ev) override { events_.push_back(ev); }
  [[nodiscard]] const std::vector<fpr::LeakageEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<fpr::LeakageEvent> events_;
};

}  // namespace fd::sca

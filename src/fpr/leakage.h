#pragma once
// Leakage instrumentation hooks for the soft-float emulation.
//
// FALCON's reference implementation emulates IEEE-754 binary64 in pure
// integer code (FPEMU). On a microcontroller every intermediate of that
// integer code drives data-dependent CMOS switching activity, which is
// what the paper's EM probe picks up. We reproduce that by emitting a
// LeakageEvent for each intermediate value the reference `fpr_mul` /
// `fpr_add` pipelines compute. A device model (src/sca) turns the event
// stream into noisy traces; the attack (src/attack) predicts the same
// intermediates from key hypotheses.
//
// When no sink is installed, or a windowed sink sits outside its trigger
// window, a data event costs one thread-local load and a branch.

#include <cstdint>

namespace fd::fpr {

enum class LeakageTag : std::uint8_t {
  // Markers, not device activity: the capture logic uses them the way a
  // lab setup uses a scope trigger line.
  kTriggerBegin,
  kTriggerEnd,

  // fpr_mul: operand mantissa halves after the 25/28 split (Fig. 2).
  kMulOperandXLo,  // x0 = secret mantissa low 25 bits ("D" in the paper)
  kMulOperandXHi,  // x1 = secret mantissa high 28 bits
  kMulOperandYLo,  // y0 = known mantissa low 25 bits  ("B")
  kMulOperandYHi,  // y1 = known mantissa high 28 bits ("A")

  // fpr_mul: schoolbook partial products (the paper's "extend" targets).
  kMulProdLL,  // x0*y0
  kMulProdLH,  // x0*y1
  kMulProdHL,  // x1*y0
  kMulProdHH,  // x1*y1

  // fpr_mul: intermediate additions (the paper's "prune" targets).
  kMulAccZ1a,  // (x0*y0 >> 25) + (x0*y1 & mask25)   - depends on x0 only
  kMulAccZ1b,  // kMulAccZ1a + (x1*y0 & mask25)
  kMulAccZ2,   // (x0*y1 >> 25) + (x1*y0 >> 25)
  kMulAccZu,   // x1*y1 + kMulAccZ2 + (kMulAccZ1b >> 25) - full-mantissa add

  // fpr_mul: exponent and sign datapath.
  kMulExpX,    // biased 11-bit exponent of x
  kMulExpY,    // biased 11-bit exponent of y
  kMulExpSum,  // ex + ey - 2100 as a 32-bit register (the attacked addition)
  kMulSign,    // sign(x) XOR sign(y)

  kMulResult,  // assembled 64-bit product bits

  // fpr_add pipeline (background activity in the captured window).
  kAddAlignShift,  // exponent difference used to align mantissas
  kAddMantSum,     // aligned mantissa sum/difference before normalization
  kAddResult,      // assembled 64-bit sum bits

  // Integer NTT modmul pipeline (src/zq): used by the paper's §V.C
  // NTT-vs-FFT side-channel comparison, not by FALCON itself.
  kNttProd,          // 32-bit product a*b before reduction
  kNttReduced,       // product after reduction mod q
  kNttButterflyAdd,  // butterfly sum mod q
  kNttButterflySub,  // butterfly difference mod q

  kNumTags,
};

[[nodiscard]] const char* leakage_tag_name(LeakageTag tag);

struct LeakageEvent {
  LeakageTag tag;
  std::uint64_t value;
};

// Two delivery modes:
//  - ungated (the default): on_event sees every event of the thread;
//  - windowed: on_event always sees the trigger markers, but data
//    events only while the sink has opened its window (set_window_open
//    from its own on_event) and is the sink installed on the thread.
// A windowed sink that mirrors its recording state into the window
// sees exactly the data events it would keep as an ungated sink; the
// other ~97% of a signing run's events never reach a virtual call.
class LeakageSink {
 public:
  virtual ~LeakageSink() = default;
  virtual void on_event(const LeakageEvent& ev) = 0;

  [[nodiscard]] bool windowed() const { return windowed_; }
  [[nodiscard]] bool window_open() const { return window_open_; }

 protected:
  LeakageSink() = default;
  struct Windowed {};
  explicit LeakageSink(Windowed) : windowed_(true) {}

  // Opens or closes this sink's window. The thread's data route changes
  // only when this sink is the one installed on the calling thread, so
  // driving on_event by hand never arms the thread for another sink.
  void set_window_open(bool open);

 private:
  bool windowed_ = false;
  bool window_open_ = false;
};

namespace detail {
// Per-thread routing: `sink` receives the trigger markers; `data` is
// the sink data events go to (the installed sink when it is ungated or
// its window is open, else null). `data` is a pure function of `sink`
// and its window state, so restoring a sink restores its arming.
struct LeakRoute {
  LeakageSink* sink = nullptr;
  LeakageSink* data = nullptr;
};
extern constinit thread_local LeakRoute tl_route;
}  // namespace detail

inline void LeakageSink::set_window_open(bool open) {
  window_open_ = open;
  if (detail::tl_route.sink == this) detail::tl_route.data = open ? this : nullptr;
}

// Installs (or clears, with nullptr) the current thread's sink; returns
// the previous one so scopes can nest.
inline LeakageSink* set_leakage_sink(LeakageSink* sink) {
  LeakageSink* prev = detail::tl_route.sink;
  const bool data = sink != nullptr && (!sink->windowed() || sink->window_open());
  detail::tl_route = {sink, data ? sink : nullptr};
  return prev;
}

[[nodiscard]] inline LeakageSink* leakage_sink() { return detail::tl_route.sink; }

inline void leak(LeakageTag tag, std::uint64_t value) {
  // `tag` is a constant at every call site, so only one arm survives.
  if (tag == LeakageTag::kTriggerBegin || tag == LeakageTag::kTriggerEnd) {
    if (LeakageSink* s = detail::tl_route.sink) s->on_event({tag, value});
  } else if (LeakageSink* s = detail::tl_route.data) {
    s->on_event({tag, value});
  }
}

// RAII scope helper.
class ScopedLeakageSink {
 public:
  explicit ScopedLeakageSink(LeakageSink* sink) : prev_(set_leakage_sink(sink)) {}
  ~ScopedLeakageSink() { set_leakage_sink(prev_); }
  ScopedLeakageSink(const ScopedLeakageSink&) = delete;
  ScopedLeakageSink& operator=(const ScopedLeakageSink&) = delete;

 private:
  LeakageSink* prev_;
};

}  // namespace fd::fpr

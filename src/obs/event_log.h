// Structured event tracing: a ring-buffered flight recorder for the
// control loop.
//
// Every layer of the system already *counts* (see obs/metrics.h); what
// the counters cannot answer is "what happened just before it broke" —
// which RM cell carried the stale ER, which drop tipped the queue,
// which fault fired last. The EventLog answers that: components record
// small typed POD events into a fixed-size ring, and the ring can be
// exported as JSONL (one event per line, deterministic bytes) or as
// Chrome trace-event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev — one track per switch port, one per VC).
//
// Hot-path contract: record() is allocation-free — the ring is
// preallocated and events are fixed-size PODs. Strings enter only via
// intern(), which fault injection calls at *arm* time (plan
// application), never per cell. Components record through a Tap, whose
// null test is all an untraced component pays per site.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace phantom::obs {

/// What happened. Each kind documents how it uses the Event payload
/// fields (`detail`, `label`, `a`/`b`/`c`).
enum class EventKind : std::uint8_t {
  kCellEnqueue,     ///< cell accepted into a port queue; a = queue length
  kCellDrop,        ///< cell dropped; detail = DropReason, a = queue length
  kRmForward,       ///< FRM transited a controlled port; a = ER Mb/s,
                    ///< b = CCR Mb/s, c = controller fair share Mb/s
  kRmBackward,      ///< BRM stamped by the forward port's controller;
                    ///< same payload as kRmForward (post-stamp values)
  kPolicerVerdict,  ///< non-conforming cell; detail = 1 tag / 2 drop
  kCacRefusal,      ///< VC setup refused; detail = refusal code,
                    ///< a = requested MCR Mb/s
  kFaultArmed,      ///< fault event scheduled; label = description
  kFaultFired,      ///< fault took effect; label = description
  kFaultRecovered,  ///< fault's recovery half ran; label = description
  kRateUpdate,      ///< controller fair-share update; a = fair share Mb/s
  kSourceRate,      ///< source ACR change; a = ACR Mb/s
};

/// Coarse filter axis over EventKind.
enum class Category : std::uint8_t {
  kCell,        ///< enqueue / drop
  kRm,          ///< RM forward / backward
  kPolicer,     ///< policing verdicts
  kAdmission,   ///< CAC refusals
  kFault,       ///< fault arm / fire / recover
  kController,  ///< controller + source rate updates
};

/// Why a cell was dropped (Event::detail for kCellDrop).
enum class DropReason : std::uint8_t {
  kQueueLimit,      ///< per-port queue_limit overflow
  kClpThreshold,    ///< CLP-tagged cell over the partial-buffer threshold
  kBufferOverflow,  ///< BufferManager hard budget / partition exhaustion
  kBufferEpd,       ///< EPD refused the frame at its first cell
  kBufferPpd,       ///< PPD discarding a damaged frame's tail
  kBufferShed,      ///< shedding elastic traffic above the shed rung
};

[[nodiscard]] const char* to_string(EventKind kind);
[[nodiscard]] const char* to_string(Category cat);
[[nodiscard]] const char* to_string(DropReason reason);
[[nodiscard]] Category category_of(EventKind kind);

/// Inverse of to_string(Category) ("cell", "rm", "policer", "admission",
/// "fault", "controller"); nullopt for unknown names. CLI flag parsing.
[[nodiscard]] std::optional<Category> category_from_string(
    std::string_view name);

/// One recorded event. Fixed-size POD: recording is a struct copy into
/// a preallocated ring slot. -1 in node/port/vc means "not applicable".
struct Event {
  sim::Time time = sim::Time::zero();
  EventKind kind = EventKind::kCellEnqueue;
  std::uint8_t detail = 0;  ///< kind-specific code (DropReason, verdict…)
  std::uint16_t label = 0;  ///< interned string id; 0 = none
  std::int16_t node = -1;   ///< switch index within the network
  std::int16_t port = -1;   ///< output-port index within the switch
  std::int32_t vc = -1;     ///< virtual circuit id
  double a = 0.0;           ///< kind-specific payload (see EventKind)
  double b = 0.0;
  double c = 0.0;
};

/// Ring-buffered event recorder. Capacity is rounded up to a power of
/// two; once full, each record overwrites the oldest event — the log is
/// a flight recorder, not an archive.
class EventLog {
 public:
  /// Which events an export keeps. Unset axes match everything.
  struct Filter {
    std::optional<std::int32_t> vc;
    std::optional<std::int16_t> node;
    std::optional<std::int16_t> port;
    std::optional<Category> category;

    [[nodiscard]] bool matches(const Event& e) const {
      if (vc && e.vc != *vc) return false;
      if (node && e.node != *node) return false;
      if (port && e.port != *port) return false;
      if (category && category_of(e.kind) != *category) return false;
      return true;
    }
  };

  explicit EventLog(std::size_t capacity = 1 << 16);

  /// Records one event. Allocation-free: a struct copy into the ring.
  void record(const Event& e) {
    ring_[head_ & mask_] = e;
    ++head_;
  }

  /// Maps a string to a stable small id for Event::label. Allocates on
  /// first sight of a string — callers must keep this off per-cell
  /// paths (fault injection interns at plan-application time). Returns
  /// 0 (no label) if the table is full.
  [[nodiscard]] std::uint16_t intern(std::string_view label);

  /// The string behind an interned id ("" for 0 / unknown).
  [[nodiscard]] const std::string& label(std::uint16_t id) const;

  /// Names a switch node for the Chrome-trace track metadata.
  void set_node_name(std::int16_t node, std::string name);

  /// Events recorded since construction (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const { return head_; }
  /// Events currently held (≤ capacity).
  [[nodiscard]] std::size_t size() const {
    return head_ < capacity() ? static_cast<std::size_t>(head_) : capacity();
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events that overwrote an older one (ring wrapped).
  [[nodiscard]] std::uint64_t overwritten() const {
    return head_ < capacity() ? 0 : head_ - capacity();
  }

  void clear();

  /// Calls `fn(const Event&)` for each held event in time order, oldest
  /// first, and events at one instant in the order recorded. Records
  /// arrive almost in time order: an atm::AbrSource runs its sends
  /// lazily and stamps a decay with the send's instant, so it may record
  /// after events at later instants. A stable sort by time puts each
  /// such record after every other event at its instant, where an
  /// evented run whose sends go last in their instant would have it.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint64_t i : time_order()) fn(ring_[i & mask_]);
  }

  /// One JSON object per line, oldest first, filtered. Deterministic
  /// bytes for a deterministic simulation.
  [[nodiscard]] std::string to_jsonl(const Filter& filter = {}) const;

  /// The last `n` matching events as individual JSONL lines (oldest of
  /// the n first) — the flight-recorder view chaos failures attach.
  [[nodiscard]] std::vector<std::string> tail_jsonl(
      std::size_t n, const Filter& filter = {}) const;

  /// Chrome trace-event JSON (the `{"traceEvents":[...]}` object
  /// format): one process per switch (pid = node, named via
  /// set_node_name), one thread per port, plus a dedicated "VC"
  /// process with one thread per virtual circuit for the per-session
  /// events (RM round-trips, policer verdicts, source rates). Rate
  /// updates become counter tracks; everything else instant events.
  [[nodiscard]] std::string to_chrome_trace() const;

  /// Formats one event as a single-line JSON object (no newline).
  [[nodiscard]] std::string event_json(const Event& e) const;

 private:
  /// The ring positions of the held events, stably sorted by time.
  [[nodiscard]] std::vector<std::uint64_t> time_order() const;

  std::vector<Event> ring_;
  std::uint64_t head_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<std::string> labels_;  // id -> string; id 0 reserved ""
  std::unordered_map<std::string, std::uint16_t> label_ids_;
  std::unordered_map<std::int16_t, std::string> node_names_;
};

/// A component's handle on an EventLog: the log (null while untraced)
/// and the node and port ids the component records under. Each site
/// tests the tap before computing its payload, so an untraced component
/// pays one null test per site.
class Tap {
 public:
  Tap() = default;
  explicit Tap(EventLog* log, int node = -1, int port = -1)
      : log_{log},
        node_{static_cast<std::int16_t>(node)},
        port_{static_cast<std::int16_t>(port)} {}

  explicit operator bool() const { return log_ != nullptr; }
  [[nodiscard]] EventLog* log() const { return log_; }
  [[nodiscard]] std::int16_t node() const { return node_; }

  /// Records `e` with this tap's node and port wherever `e` leaves
  /// them at -1. The tap must be attached.
  void record(Event e) const {
    if (e.node < 0) e.node = node_;
    if (e.port < 0) e.port = port_;
    log_->record(e);
  }

 private:
  EventLog* log_ = nullptr;
  std::int16_t node_ = -1;
  std::int16_t port_ = -1;
};

}  // namespace phantom::obs

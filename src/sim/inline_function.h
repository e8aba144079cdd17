// Small-buffer move-only callable: the event kernel's allocation-free
// replacement for std::function<void()>.
//
// Every scheduled event used to pay one heap allocation for its capture
// block (std::function's SBO is 16 bytes on libstdc++; a Link delivery
// then captured 72). InlineFunction<N> stores captures up to N bytes inline
// in the object, falling back to the heap only beyond that — and counts
// those fallbacks, so a model whose captures outgrow the buffer shows
// up in `phantom_cli --perf-report` instead of silently regressing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace phantom::sim {

namespace detail {

/// Process-wide fallback counter shared by every InlineFunction<N>
/// instantiation (the perf report wants one number, not one per size).
/// Relaxed atomic: the count is a diagnostic, and the chaos supervisor's
/// worker threads may schedule from forked children concurrently.
struct InlineFunctionStats {
  inline static std::atomic<std::uint64_t> heap_fallbacks{0};
};

}  // namespace detail

/// Move-only type-erased void() callable with N bytes of inline capture
/// storage. Captures that are larger than N, over-aligned, or whose move
/// constructor may throw are heap-allocated instead (InlineFunction's
/// own move must stay noexcept). A callable that is trivially copyable
/// and trivially destructible (a bind_member closure, a lambda
/// capturing pointers and integers) is stored with no manager: moving
/// it copies its bytes and destroying it does nothing, so neither costs
/// an indirect call.
///
/// Invoking a null InlineFunction is undefined; callers (the event
/// queue) reject null callbacks at schedule time. The stored callable
/// must not destroy the InlineFunction it is running inside. The event
/// queue upholds this: it runs each callback where it sits, in a slot
/// that never moves, and marks the slot as running, so an event that
/// cancels itself is a no-op; the slot's callback is destroyed only
/// after the call returns (or throws).
template <std::size_t N>
class InlineFunction {
  static_assert(N >= sizeof(void*), "buffer must at least hold a pointer");

 public:
  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= N && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  constexpr InlineFunction() = default;
  constexpr InlineFunction(std::nullptr_t) {}  // NOLINT: match std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT: implicit like std::function
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& o) noexcept
      : invoke_{o.invoke_}, manage_{o.manage_} {
    relocate_from(o);
  }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      invoke_ = o.invoke_;
      manage_ = o.manage_;
      relocate_from(o);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Replaces the stored callable with one built from `f` directly in
  /// this object's storage: a callable is constructed in place, an
  /// InlineFunction rvalue is moved in, and nullptr (or a null function
  /// pointer) leaves this null. Strong guarantee: if building the new
  /// callable throws, this still holds the old one.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InlineFunction>) {
      *this = std::forward<F>(f);  // an lvalue would be a (deleted) copy
    } else if constexpr (std::is_same_v<D, std::nullptr_t>) {
      reset();
    } else {
      static_assert(std::is_invocable_r_v<void, D&>,
                    "InlineFunction holds void() callables");
      if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D>) {
        if (f == nullptr) {  // a null function pointer stays null
          reset();
          return;
        }
      }
      if constexpr (!fits_inline<D>) {
        D* heap = new D(std::forward<F>(f));  // may throw; *this untouched
        reset();
        ::new (static_cast<void*>(buf_)) D*(heap);
        detail::InlineFunctionStats::heap_fallbacks.fetch_add(
            1, std::memory_order_relaxed);
        invoke_ = &heap_invoke<D>;
        manage_ = &heap_manage<D>;
        return;
      } else if constexpr (std::is_nothrow_constructible_v<D, F&&>) {
        reset();
        ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      } else {
        D staged(std::forward<F>(f));  // may throw; *this untouched
        reset();
        ::new (static_cast<void*>(buf_)) D(std::move(staged));  // noexcept
      }
      invoke_ = &inline_invoke<D>;
      manage_ = kTrivial<D> ? nullptr : &inline_manage<D>;
    }
  }

  /// Destroys the stored callable (and everything it captured) now.
  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) noexcept {
    return f.invoke_ == nullptr;
  }

  void operator()() { invoke_(buf_); }

  /// Callables constructed with heap-allocated captures since process
  /// start (or the last reset_heap_fallbacks). Zero on every hot path
  /// in this library; nonzero means some capture outgrew the buffer.
  [[nodiscard]] static std::uint64_t heap_fallbacks() noexcept {
    return detail::InlineFunctionStats::heap_fallbacks.load(
        std::memory_order_relaxed);
  }
  static void reset_heap_fallbacks() noexcept {
    detail::InlineFunctionStats::heap_fallbacks.store(
        0, std::memory_order_relaxed);
  }

 private:
  enum class Op : unsigned char {
    kDestroy,   ///< destroy the callable held in `self`
    kRelocate,  ///< move-construct `self` from `other`, destroying `other`
  };
  using Invoker = void (*)(void*);
  using Manager = void (*)(Op, void* self, void* other);

  // Stored inline with no manager: its bytes are its value.
  template <typename D>
  static constexpr bool kTrivial = std::is_trivially_copyable_v<D> &&
                                   std::is_trivially_destructible_v<D>;

  // Takes over `o`'s callable; invoke_/manage_ are already copied.
  void relocate_from(InlineFunction& o) noexcept {
    if (manage_ != nullptr) {
      manage_(Op::kRelocate, buf_, o.buf_);
    } else if (invoke_ != nullptr) {
      std::memcpy(buf_, o.buf_, N);
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  template <typename D>
  static void inline_invoke(void* buf) {
    (*std::launder(reinterpret_cast<D*>(buf)))();
  }
  template <typename D>
  static void inline_manage(Op op, void* self, void* other) {
    if (op == Op::kRelocate) {
      D* src = std::launder(reinterpret_cast<D*>(other));
      ::new (self) D(std::move(*src));
      src->~D();
    } else {
      std::launder(reinterpret_cast<D*>(self))->~D();
    }
  }

  template <typename D>
  static void heap_invoke(void* buf) {
    (**std::launder(reinterpret_cast<D**>(buf)))();
  }
  template <typename D>
  static void heap_manage(Op op, void* self, void* other) {
    if (op == Op::kRelocate) {
      ::new (self) D*(*std::launder(reinterpret_cast<D**>(other)));
    } else {
      delete *std::launder(reinterpret_cast<D**>(self));
    }
  }

  alignas(std::max_align_t) unsigned char buf_[N];
  Invoker invoke_ = nullptr;
  Manager manage_ = nullptr;
};

/// Pre-bound nullary member-function callback: a trivially copyable
/// {object pointer} closure, the canonical shape for self-rescheduling
/// events (controller ticks, transmitters, reapers). Use via
/// bind_member:
///
///     sim.schedule(interval, bind_member<&Controller::on_interval>(this));
template <auto Method, typename T>
struct MemberCallback {
  T* obj;
  void operator()() const { (obj->*Method)(); }
};

template <auto Method, typename T>
[[nodiscard]] constexpr MemberCallback<Method, T> bind_member(T* obj) {
  return {obj};
}

}  // namespace phantom::sim

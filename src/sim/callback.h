#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace cloudmedia::sim {

/// Move-only type-erased `void()` callable with inline small-buffer
/// storage, sized for the captures the vod layer actually schedules
/// (this + a channel/chunk pair + a timestamp, this + a periodic task +
/// its firing time — all well under 48 bytes). std::function
/// heap-allocates every one of those on libstdc++ (its inline buffer is
/// two words), which made the allocator the top entry in the discrete
/// engine's event-path profile; this type keeps the hot
/// schedule→run→destroy cycle allocation-free and falls back to the heap
/// only for oversized or throwing-move captures.
///
/// Move-only on purpose: simulator callbacks are scheduled once and run
/// once, so requiring copyability (as std::function does) would only
/// forbid useful captures like unique_ptr.
class Callback {
 public:
  /// Inline capture budget. Callables up to this size (and nothrow-move)
  /// live inside the Callback object itself.
  static constexpr std::size_t kInlineBytes = 48;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(fn));
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  void operator()() {
    CM_EXPECTS(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }
  friend bool operator==(const Callback& c, std::nullptr_t) noexcept {
    return c.ops_ == nullptr;
  }
  friend bool operator!=(const Callback& c, std::nullptr_t) noexcept {
    return c.ops_ != nullptr;
  }

  /// True when a callable of this type would use the inline buffer
  /// (exposed so tests/benches can pin which captures stay allocation-free).
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  /// Per-erased-type operation table; one static instance per callable
  /// type, so the object itself carries a single pointer of overhead.
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move-construct + destroy src
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  struct InlineOps {
    static void invoke(void* storage) { (*std::launder(reinterpret_cast<D*>(storage)))(); }
    static void relocate(void* dst, void* src) noexcept {
      D* from = std::launder(reinterpret_cast<D*>(src));
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void destroy(void* storage) noexcept {
      std::launder(reinterpret_cast<D*>(storage))->~D();
    }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename D>
  struct HeapOps {
    static D*& slot(void* storage) noexcept {
      return *std::launder(reinterpret_cast<D**>(storage));
    }
    static void invoke(void* storage) { (*slot(storage))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D*(slot(src));
    }
    static void destroy(void* storage) noexcept { delete slot(storage); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename D, typename F>
  void construct(F&& fn) {
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace cloudmedia::sim

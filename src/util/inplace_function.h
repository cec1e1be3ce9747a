// Move-only callable with inline (small-buffer) storage.
//
// The simulator dispatches tens of millions of closures per bench run;
// std::function's 16-byte small-object buffer forces a heap allocation for
// nearly every model closure (they capture request records, routing state,
// completion chains). InplaceFunction stores callables up to InlineBytes
// in place and only falls back to the heap for oversized ones, which takes
// the event hot path from one malloc/free per event to zero.
// heap_allocated() reports which storage a callable got.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>  // std::bad_function_call
#include <new>
#include <type_traits>
#include <utility>

namespace prord::util {

template <typename Signature, std::size_t InlineBytes = 48>
class InplaceFunction;  // undefined; specialized below

template <typename R, typename... Args, std::size_t InlineBytes>
class InplaceFunction<R(Args...), InlineBytes> {
 public:
  InplaceFunction() noexcept = default;
  InplaceFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(runtime/explicit)
    emplace(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept { move_from(other); }
  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InplaceFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  R operator()(Args... args) const {
    if (!vt_) throw std::bad_function_call();
    return vt_->invoke(const_cast<void*>(static_cast<const void*>(buf_)),
                       std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// True when the wrapped callable lives on the heap (diagnostics).
  bool heap_allocated() const noexcept { return vt_ && vt_->heap; }

  static constexpr std::size_t inline_capacity() noexcept {
    return InlineBytes;
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
    bool heap;
  };

  template <typename F>
  struct InlineOps {
    static R invoke(void* p, Args&&... args) {
      return (*static_cast<F*>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) {
      ::new (dst) F(std::move(*static_cast<F*>(src)));
      static_cast<F*>(src)->~F();
    }
    static void destroy(void* p) { static_cast<F*>(p)->~F(); }
    static constexpr VTable vtable{&invoke, &relocate, &destroy, false};
  };

  template <typename F>
  struct HeapOps {
    static R invoke(void* p, Args&&... args) {
      return (**static_cast<F**>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) {
      *static_cast<F**>(dst) = *static_cast<F**>(src);
    }
    static void destroy(void* p) { delete *static_cast<F**>(p); }
    static constexpr VTable vtable{&invoke, &relocate, &destroy, true};
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    constexpr bool fits = sizeof(D) <= InlineBytes &&
                          alignof(D) <= alignof(std::max_align_t);
    if constexpr (fits) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &InlineOps<D>::vtable;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      vt_ = &HeapOps<D>::vtable;
    }
  }

  void move_from(InplaceFunction& other) noexcept {
    vt_ = other.vt_;
    if (vt_) vt_->relocate(buf_, other.buf_);
    other.vt_ = nullptr;
  }

  void reset() noexcept {
    if (vt_) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[InlineBytes];
};

}  // namespace prord::util

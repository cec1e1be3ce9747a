// InplaceFunction contract tests: callables up to the inline capacity live
// in the object and larger ones on the heap (heap_allocated() tells them
// apart), moves transfer the callable and empty the source, reset and
// assignment destroy what was held, and every captured object is destroyed
// exactly once — the ASan job's leak check sees any callable a move or
// reset forgets.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <utility>

#include "util/inplace_function.h"

namespace prord::util {
namespace {

/// Capture that counts live copies, so a test can tell a destroyed
/// callable from a leaked or doubly destroyed one.
struct Probe {
  static int live;
  int* calls;

  explicit Probe(int* c) : calls(c) { ++live; }
  Probe(const Probe& o) : calls(o.calls) { ++live; }
  Probe(Probe&& o) noexcept : calls(o.calls) { ++live; }
  ~Probe() { --live; }
};
int Probe::live = 0;

using SmallFn = InplaceFunction<int(int), 32>;

class InplaceFunctionTest : public ::testing::Test {
 protected:
  void SetUp() override { Probe::live = 0; }
  void TearDown() override { EXPECT_EQ(Probe::live, 0); }
};

TEST_F(InplaceFunctionTest, SmallCallableStaysInline) {
  int calls = 0;
  SmallFn fn = [p = Probe(&calls)](int x) {
    ++*p.calls;
    return x + 1;
  };
  ASSERT_TRUE(fn);
  EXPECT_FALSE(fn.heap_allocated());
  EXPECT_EQ(fn(41), 42);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(Probe::live, 1);
}

TEST_F(InplaceFunctionTest, OversizedCallableFallsBackToHeap) {
  int calls = 0;
  std::array<int, 16> payload{};  // 64 bytes: past the 32-byte buffer
  payload[15] = 7;
  SmallFn fn = [p = Probe(&calls), payload](int x) {
    ++*p.calls;
    return x * payload[15];
  };
  static_assert(sizeof(payload) > SmallFn::inline_capacity());
  EXPECT_TRUE(fn.heap_allocated());
  EXPECT_EQ(fn(6), 42);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(Probe::live, 1);
}

TEST_F(InplaceFunctionTest, EmptyFunctionThrowsOnCall) {
  SmallFn fn;
  EXPECT_FALSE(fn);
  EXPECT_FALSE(fn.heap_allocated());
  EXPECT_THROW(fn(1), std::bad_function_call);
}

TEST_F(InplaceFunctionTest, MoveTransfersInlineAndHeapCallables) {
  int calls = 0;
  std::array<int, 16> payload{};
  SmallFn small = [p = Probe(&calls)](int x) { return x + ++*p.calls; };
  SmallFn big = [p = Probe(&calls), payload](int x) {
    return x + payload[0] + ++*p.calls;
  };
  EXPECT_EQ(Probe::live, 2);

  SmallFn small2 = std::move(small);
  SmallFn big2 = std::move(big);
  EXPECT_FALSE(small);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(big);    // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(small2.heap_allocated());
  EXPECT_TRUE(big2.heap_allocated());
  // Relocating the inline callable destroyed the source copy; the heap
  // callable moved by pointer. Either way one capture each is left.
  EXPECT_EQ(Probe::live, 2);
  EXPECT_EQ(small2(10), 11);
  EXPECT_EQ(big2(10), 12);

  // Move-assign over a held callable destroys the old one first.
  small2 = std::move(big2);
  EXPECT_TRUE(small2.heap_allocated());
  EXPECT_EQ(Probe::live, 1);
  EXPECT_EQ(small2(0), 3);
}

TEST_F(InplaceFunctionTest, ResetDestroysHeldCallable) {
  int calls = 0;
  std::array<int, 16> payload{};
  SmallFn small = [p = Probe(&calls)](int x) { return x + *p.calls; };
  SmallFn big = [p = Probe(&calls), payload](int x) {
    return x + payload[0] + *p.calls;
  };
  EXPECT_EQ(Probe::live, 2);
  small = nullptr;
  EXPECT_FALSE(small);
  EXPECT_EQ(Probe::live, 1);
  big = nullptr;
  EXPECT_FALSE(big);
  EXPECT_FALSE(big.heap_allocated());
  EXPECT_EQ(Probe::live, 0);
  // A reset function can take a new callable.
  big = [p = Probe(&calls), payload](int x) { return x + payload[1]; };
  EXPECT_EQ(big(5), 5);
  EXPECT_EQ(Probe::live, 1);
}

TEST_F(InplaceFunctionTest, DestructorReleasesBothStorageKinds) {
  int calls = 0;
  std::array<int, 16> payload{};
  {
    SmallFn small = [p = Probe(&calls)](int x) { return x; };
    SmallFn big = [p = Probe(&calls), payload](int x) {
      return x + payload[0];
    };
    EXPECT_EQ(Probe::live, 2);
  }
  EXPECT_EQ(Probe::live, 0);
}

}  // namespace
}  // namespace prord::util

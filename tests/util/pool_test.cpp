// FixedPool contract tests: exhaustion/regrow, eager double-free
// detection, deterministic reuse order, and straggler destruction (the
// property the sanitizer CI job's ASan leak check rides on — an abandoned
// pool must destroy what's still live in it).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/pool.h"

namespace prord::util {
namespace {

struct Tracked {
  static int live;
  static int constructed;
  int value = 0;

  explicit Tracked(int v = 0) : value(v) {
    ++live;
    ++constructed;
  }
  ~Tracked() { --live; }
};

int Tracked::live = 0;
int Tracked::constructed = 0;

class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracked::live = 0;
    Tracked::constructed = 0;
  }
};

TEST_F(PoolTest, ExhaustionGrowsGeometrically) {
  FixedPool<Tracked> pool(4);
  EXPECT_EQ(pool.capacity(), 0u);  // slabs are lazy

  std::vector<Tracked*> objs;
  for (int i = 0; i < 9; ++i) objs.push_back(pool.acquire(i));

  // 4 -> +4 -> +8: each slab matches the prior total.
  EXPECT_EQ(pool.capacity(), 16u);
  EXPECT_EQ(pool.chunk_count(), 3u);
  EXPECT_EQ(pool.in_use(), 9u);
  EXPECT_EQ(pool.high_water(), 9u);
  EXPECT_EQ(pool.total_acquires(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(objs[i]->value, i);

  for (Tracked* t : objs) pool.release(t);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.high_water(), 9u);  // high-water survives the drain
  EXPECT_EQ(Tracked::live, 0);

  // Re-acquiring the drained population must not grow new slabs.
  for (int i = 0; i < 16; ++i) pool.acquire(i);
  EXPECT_EQ(pool.capacity(), 16u);
  EXPECT_EQ(pool.chunk_count(), 3u);
}

TEST_F(PoolTest, DoubleReleaseThrowsEagerly) {
  FixedPool<Tracked> pool(4);
  Tracked* t = pool.acquire(7);
  pool.release(t);
  EXPECT_THROW(pool.release(t), std::logic_error);
  // The failed release must not have corrupted accounting.
  EXPECT_EQ(pool.in_use(), 0u);
  Tracked* again = pool.acquire(8);
  EXPECT_EQ(again->value, 8);
  pool.release(again);
}

TEST_F(PoolTest, ReleaseOfNullIsANoOp) {
  FixedPool<Tracked> pool(4);
  pool.release(nullptr);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST_F(PoolTest, ReuseOrderIsDeterministic) {
  // Fresh pool: ascending slot order within a slab.
  FixedPool<Tracked> pool(8);
  Tracked* a = pool.acquire(1);
  Tracked* b = pool.acquire(2);
  Tracked* c = pool.acquire(3);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);

  // LIFO freelist: last released is first reacquired, exactly.
  pool.release(a);
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.acquire(4), c);
  EXPECT_EQ(pool.acquire(5), b);
  EXPECT_EQ(pool.acquire(6), a);
}

TEST_F(PoolTest, DestructorDestroysStragglers) {
  {
    FixedPool<Tracked> pool(4);
    pool.acquire(1);
    pool.acquire(2);
    pool.acquire(3);
    EXPECT_EQ(Tracked::live, 3);
    // Abandon the pool with objects still live (exception-unwind path).
  }
  // ~FixedPool ran the stragglers' destructors — ASan sees no leak and
  // the object count balances.
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(Tracked::constructed, 3);
}

}  // namespace
}  // namespace prord::util

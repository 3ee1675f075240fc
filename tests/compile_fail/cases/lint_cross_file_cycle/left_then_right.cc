// expect-lint: lock-order-cycle
//
// One half of a lock-order cycle split across two translation units: this
// file takes Pair::left_ then Pair::right_, right_then_left.cc takes them in
// the opposite order. Neither file has a cycle on its own; the tree-wide
// pass of tools/xst_lint.py must flag both sites.
#include "src/common/sync.h"

class Pair {
 public:
  void LeftThenRight();
  void RightThenLeft();

 private:
  xst::Mutex left_;
  xst::Mutex right_;
};

void Pair::LeftThenRight() {
  xst::MutexLock left(&left_);
  xst::MutexLock right(&right_);
}

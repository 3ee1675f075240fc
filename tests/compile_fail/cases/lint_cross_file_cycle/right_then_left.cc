// expect-lint: lock-order-cycle
//
// The other half of the cross-file cycle (see left_then_right.cc).
#include "src/common/sync.h"

class Pair {
 public:
  void LeftThenRight();
  void RightThenLeft();

 private:
  xst::Mutex left_;
  xst::Mutex right_;
};

void Pair::RightThenLeft() {
  xst::MutexLock right(&right_);
  xst::MutexLock left(&left_);
}

// expect-error: 'const xst::Page' as 'this' argument|'this' argument to member function 'AddRecord' has type 'const xst::Page'
//
// A PageRef reads. A write must go through PageWriteGuard, which marks the
// frame unlogged so the log captures the new content; a write through the
// pin alone would be dropped at eviction.
#include "src/store/pager.h"

void WriteThroughPin(xst::PageRef& ref) {
  (void)ref->AddRecord("lost");  // must not compile: PageRef is read-only
}

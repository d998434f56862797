// Control: architecture waivers carrying the mandatory reason. The
// layering waiver covers an up-include, the const-escape waiver a
// documented synchronized interior; both reasons wrap across comment
// lines, which the waiver scanner must tolerate. Must lint clean.
// archlint: module=ranking
#include "common/status.h"
// ARCH: layering (corpus control: consuming the pipeline's passive
// output record only, no behavioral dependency on the module that links
// this one)
#include "pipeline/result.h"

struct Accumulator {
  // ARCH: const-escape (corpus control: cache filled under the owner's
  // lock; readers observe a stable value)
  mutable long cached_total = -1;
};

// Reaches the L3 fixture headers' declarations, so rule L9 finds nothing in
// them whatever a run scans: WholeRun's sources are always indexed.
#include "proto/l3_bad.h"
#include "proto/l3_ok.h"

void use_l3_fixtures(ByteReader& r) {
  FrameA::decode(r), FrameB::decode(r), parse_header(r), parse_header2(r);
  try_take(r), try_take2(r), consume(r), encode_frame(r), retry_count();
}

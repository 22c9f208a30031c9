// The four perfbench workloads. Each runs against its generated
// repository, measures for args.seconds, checks every answer and fills the
// Outcome with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

Status RunServePoint(const Args& args, const std::string& root, Outcome* out);
Status RunScanCold(const Args& args, const std::string& root, Outcome* out);
Status RunAnalyticSpill(const Args& args, const std::string& root,
                        Outcome* out);
Status RunIngestLive(const Args& args, const std::string& root, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Where a result came from: compiler, build type, revision, CPU, CPU
// count and the machine's load at the start and end of the run, so a
// figure taken on a loaded machine says so.
#pragma once

#include <string>

namespace perfbench {

struct LoadAvg {
    double one = 0.0;
    double five = 0.0;
    double fifteen = 0.0;
};

/// /proc/loadavg now (zeros where it is unreadable).
LoadAvg read_loadavg();

/// The provenance block as one JSON object.
std::string provenance_json(const std::string& root, const LoadAvg& start,
                            const LoadAvg& end);

}  // namespace perfbench

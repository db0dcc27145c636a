#include "provenance.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "api/json.hpp"
#include "bench/bench_util.hpp"

namespace perfbench {

namespace {

using rtk::api::Json;

std::string first_line(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/// The checked-out revision, read from .git without running git: the
/// benchmark may run in an export that is not a repository at all.
std::string git_rev(const std::string& root) {
    const std::string head = first_line(root + "/.git/HEAD");
    if (head.rfind("ref: ", 0) != 0) {
        return head.empty() ? "unknown (not a git checkout)" : head;
    }
    const std::string ref = head.substr(5);
    const std::string loose = first_line(root + "/.git/" + ref);
    if (!loose.empty()) {
        return loose;
    }
    std::ifstream packed(root + "/.git/packed-refs");
    std::string line;
    while (std::getline(packed, line)) {
        const auto space = line.find(' ');
        if (space != std::string::npos && line.substr(space + 1) == ref) {
            return line.substr(0, space);
        }
    }
    return "unknown";
}

Json load_json(const LoadAvg& l) {
    Json a = Json::array();
    a.push(Json::number_real(l.one));
    a.push(Json::number_real(l.five));
    a.push(Json::number_real(l.fifteen));
    return a;
}

}  // namespace

LoadAvg read_loadavg() {
    LoadAvg l;
    std::istringstream in(first_line("/proc/loadavg"));
    in >> l.one >> l.five >> l.fifteen;
    return l;
}

std::string provenance_json(const std::string& root, const LoadAvg& start,
                            const LoadAvg& end) {
    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    // A one-minute load above half the CPUs means other work shared the
    // machine with this run, and its timings read high.
    const bool loaded = start.one > 0.5 * static_cast<double>(nproc) ||
                        end.one > 0.5 * static_cast<double>(nproc);
    // Compiler, build type and CPU as every bench binary stamps them; the
    // revision is read at run time, since the build may predate a commit.
    Json p = rtk::bench::meta_json_doc();
    p.set("git_rev", Json::string(git_rev(root)));
    p.set("nproc", Json::number_signed(nproc));
    p.set("loadavg_start", load_json(start));
    p.set("loadavg_end", load_json(end));
    p.set("machine_loaded", Json::boolean(loaded));
    return p.dump(-1);
}

}  // namespace perfbench

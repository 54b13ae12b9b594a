#include "prof/report.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "os/sysno.hh"

namespace limit::prof {

namespace {

/** Escape a string for a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
quoted(const std::string &s)
{
    return '"' + jsonEscape(s) + '"';
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0
        ? 0.0
        : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

/** PEC-counted instructions against the ledger's, as a % drift. */
double
ledgerDriftPct(const Report::KernelSection &s)
{
    const std::uint64_t ledger =
        s.profile.userInstructions() + s.profile.kernelInstructions();
    const std::uint64_t pec =
        s.pecUserInstructions + s.pecKernelInstructions;
    return ledger == 0
        ? 0.0
        : 100.0 * (static_cast<double>(pec) -
                   static_cast<double>(ledger)) /
            static_cast<double>(ledger);
}

} // namespace

void
Report::schema(const std::string &schema_tag)
{
    schema_ = schema_tag;
}

void
Report::meta(const std::string &key, const std::string &value)
{
    meta_[key] = value;
}

void
Report::meta(const std::string &key, std::uint64_t value)
{
    meta_[key] = std::to_string(value);
}

void
Report::meta(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    meta_[key] = buf;
}

Report::SyncSection &
Report::syncSection(const std::string &name)
{
    for (auto &s : sync_) {
        if (s.name == name)
            return s;
    }
    sync_.push_back({});
    sync_.back().name = name;
    return sync_.back();
}

Report::KernelSection &
Report::kernelSection(const std::string &name)
{
    for (auto &s : kernel_) {
        if (s.name == name)
            return s;
    }
    kernel_.push_back({});
    kernel_.back().name = name;
    return kernel_.back();
}

void
Report::addSync(const std::string &name, const SyncProfile &profile,
                std::uint64_t total_cycles, std::uint64_t work_items)
{
    SyncSection &s = syncSection(name);
    s.profile.merge(profile);
    s.totalCycles += total_cycles;
    s.workItems += work_items;
    ++s.runs;
}

void
Report::addKernel(const std::string &name, const KernelProfile &profile,
                  std::uint64_t pec_user_instructions,
                  std::uint64_t pec_kernel_instructions)
{
    KernelSection &s = kernelSection(name);
    s.profile.merge(profile);
    s.pecUserInstructions += pec_user_instructions;
    s.pecKernelInstructions += pec_kernel_instructions;
    ++s.runs;
}

void
Report::addSensitivity(const SensitivitySection &section)
{
    sensitivity_.push_back(section);
}

void
Report::addTimeline(const TimelineSection &section)
{
    timeline_.push_back(section);
}

const Report::SyncSection *
Report::sync(const std::string &name) const
{
    for (const auto &s : sync_) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

stats::Table
Report::syncSummaryTable(const std::string &title) const
{
    stats::Table t(title);
    t.header({"app", "work items", "total Mcycles", "% cyc acquiring",
              "% cyc in crit sec", "acquisitions"});
    for (const auto &s : sync_) {
        const unsigned runs = std::max(1u, s.runs);
        t.beginRow()
            .cell(s.name)
            .cell(s.workItems / runs)
            .cell(static_cast<double>(s.totalCycles) / runs / 1e6, 1)
            .cell(pct(s.profile.totalWaitCycles(), s.totalCycles), 2)
            .cell(pct(s.profile.totalHoldCycles(), s.totalCycles), 2)
            .cell(s.profile.totalAcquisitions() / runs);
    }
    return t;
}

stats::Table
Report::syncDetailTable(const std::string &title) const
{
    stats::Table t(title);
    t.header({"app", "lock", "acquire site", "acq", "contended",
              "mean acq cyc", "mean held cyc", "p95 held cyc"});
    for (const auto &s : sync_) {
        // Group (lock addr, site) pairs into (lock class, site) rows:
        // striped locks share a class name and belong in one row.
        std::map<std::pair<std::string, std::string>, SyncSiteStats>
            by_class;
        for (const auto &[key, st] : s.profile.sites()) {
            auto name_it = s.profile.lockNames().find(key.first);
            const std::string lock_class = name_it ==
                    s.profile.lockNames().end()
                ? "?"
                : name_it->second;
            by_class[{lock_class, s.profile.siteName(key.second)}]
                .merge(st);
        }
        for (const auto &[key, st] : by_class) {
            const double acq_mean = st.acquisitions == 0
                ? 0.0
                : static_cast<double>(st.waitCycles.totalValue()) /
                    static_cast<double>(st.acquisitions);
            t.beginRow()
                .cell(s.name)
                .cell(key.first)
                .cell(key.second)
                .cell(st.acquisitions)
                .cell(st.contended)
                .cell(acq_mean, 0)
                .cell(st.holdCycles.mean(), 0)
                .cell(st.holdCycles.quantile(0.95));
        }
    }
    return t;
}

stats::Table
Report::kernelTable(const std::string &title) const
{
    stats::Table t(title);
    t.header({"workload", "user Minstr", "kernel Minstr", "kernel %",
              "counter-vs-ledger drift %"});
    for (const auto &s : kernel_) {
        const unsigned runs = std::max(1u, s.runs);
        const std::uint64_t user = s.profile.userInstructions();
        const std::uint64_t kern = s.profile.kernelInstructions();
        t.beginRow()
            .cell(s.name)
            .cell(static_cast<double>(user) / runs / 1e6, 2)
            .cell(static_cast<double>(kern) / runs / 1e6, 2)
            .cell(pct(kern, user + kern), 1)
            .cell(ledgerDriftPct(s), 2);
    }
    return t;
}

stats::Table
Report::sensitivityTable(const std::string &title) const
{
    stats::Table t(title);
    t.header({"scenario", "rank", "axis", "param", "work", "Δwork %",
              "elasticity", "score"});
    for (const auto &s : sensitivity_) {
        unsigned rank = 0;
        for (const auto &a : s.axes) {
            ++rank;
            for (const auto &l : a.levels) {
                t.beginRow()
                    .cell(s.name)
                    .cell(rank)
                    .cell(a.axis + " (" + a.unit + ")")
                    .cell(l.param, 0)
                    .cell(l.work, 0)
                    .cell(l.workRelPct, 2)
                    .cell(l.elasticity, 3)
                    .cell(a.score, 2);
            }
        }
    }
    return t;
}

std::string
Report::sensitivityMarkdown() const
{
    stats::Table t("sensitivity ranking");
    t.header({"scenario", "rank", "axis", "base", "most sensitive level",
              "Δwork %", "score"});
    for (const auto &s : sensitivity_) {
        unsigned rank = 0;
        for (const auto &a : s.axes) {
            ++rank;
            // Report the level that realizes the ranking score.
            const SensitivitySection::Level *best = nullptr;
            for (const auto &l : a.levels) {
                if (!best ||
                    std::abs(l.workRelPct) > std::abs(best->workRelPct))
                    best = &l;
            }
            t.beginRow()
                .cell(s.name)
                .cell(rank)
                .cell(a.axis + " (" + a.unit + ")")
                .cell(a.baseParam, 0)
                .cell(best ? fmtDouble(best->param, 0) : "-")
                .cell(best ? fmtDouble(best->workRelPct, 2) : "-")
                .cell(a.score, 2);
        }
    }
    return t.renderMarkdown();
}

std::string
Report::timelineAscii() const
{
    // Pure-ASCII intensity ramp, darkest last.
    static const char ramp[] = " .:-=+*#%@";
    constexpr unsigned rampMax = sizeof(ramp) - 2;
    constexpr std::size_t width = 72;
    std::ostringstream os;
    for (const auto &t : timeline_) {
        const std::size_t slices =
            t.cores.empty() ? 0 : t.cores.front().size();
        os << "timeline '" << t.name << "': interval "
           << t.intervalTicks << " ticks, " << slices << " slices, "
           << t.cores.size() << " cores\n";
        if (slices == 0)
            continue;
        // Resample to at most `width` columns: each column is the mean
        // per-tick instruction rate of its slice group.
        const std::size_t group = (slices + width - 1) / width;
        const std::size_t cols = (slices + group - 1) / group;
        auto colRate = [&](const std::vector<sim::EventDeltas> &lane,
                           std::size_t col, sim::EventType ev) {
            const std::size_t lo = col * group;
            const std::size_t hi = std::min(slices, lo + group);
            std::uint64_t n = 0;
            for (std::size_t s = lo; s < hi; ++s)
                n += lane[s][ev];
            return static_cast<double>(n) /
                   (static_cast<double>(hi - lo) *
                    static_cast<double>(t.intervalTicks));
        };
        // Heatmap rows: per-core instruction rate, normalized to the
        // busiest column in the section so relative phases pop out.
        double peak = 0;
        for (const auto &lane : t.cores) {
            for (std::size_t c = 0; c < cols; ++c) {
                peak = std::max(
                    peak,
                    colRate(lane, c, sim::EventType::Instructions));
            }
        }
        for (std::size_t core = 0; core < t.cores.size(); ++core) {
            os << "  core " << core << " |";
            for (std::size_t c = 0; c < cols; ++c) {
                const double r = colRate(
                    t.cores[core], c, sim::EventType::Instructions);
                const unsigned g =
                    peak <= 0 ? 0
                              : static_cast<unsigned>(
                                    r / peak * rampMax + 0.5);
                os << ramp[std::min(g, rampMax)];
            }
            os << "|\n";
        }
        // Machine-wide IPC sparkline (instructions / cycles per column).
        os << "  ipc    |";
        for (std::size_t c = 0; c < cols; ++c) {
            double instr = 0, cyc = 0;
            for (const auto &lane : t.cores) {
                instr += colRate(lane, c, sim::EventType::Instructions);
                cyc += colRate(lane, c, sim::EventType::Cycles);
            }
            const double ipc = cyc <= 0 ? 0 : instr / cyc;
            const unsigned g = static_cast<unsigned>(
                std::min(1.0, ipc) * rampMax + 0.5);
            os << ramp[std::min(g, rampMax)];
        }
        os << "|\n";
        for (std::size_t i = 0; i < t.phases.size(); ++i) {
            const auto &p = t.phases[i];
            os << "  phase " << i << ": slices [" << p.firstSlice
               << ".." << (p.firstSlice + p.numSlices - 1) << "] ipc "
               << fmtDouble(p.ipc, 3) << " dominant " << p.dominant
               << "\n";
        }
    }
    return os.str();
}

std::string
Report::syncSummaryMarkdown() const
{
    stats::Table t("sync summary");
    t.header({"app", "% cycles acquiring", "% cycles in crit. sec.",
              "acquisitions"});
    for (const auto &s : sync_) {
        const unsigned runs = std::max(1u, s.runs);
        t.beginRow()
            .cell(s.name)
            .cell(pct(s.profile.totalWaitCycles(), s.totalCycles), 2)
            .cell(pct(s.profile.totalHoldCycles(), s.totalCycles), 2)
            .cell(s.profile.totalAcquisitions() / runs);
    }
    return t.renderMarkdown();
}

std::string
Report::kernelMarkdown() const
{
    std::vector<const KernelSection *> rows;
    rows.reserve(kernel_.size());
    for (const auto &s : kernel_)
        rows.push_back(&s);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const KernelSection *a, const KernelSection *b) {
                         return pct(a->profile.kernelInstructions(),
                                    a->profile.userInstructions() +
                                        a->profile.kernelInstructions()) >
                             pct(b->profile.kernelInstructions(),
                                 b->profile.userInstructions() +
                                     b->profile.kernelInstructions());
                     });

    stats::Table t("kernel share");
    t.header({"workload", "kernel instruction %",
              "counter-vs-ledger drift"});
    for (const KernelSection *s : rows) {
        const std::uint64_t user = s->profile.userInstructions();
        const std::uint64_t kern = s->profile.kernelInstructions();
        t.beginRow()
            .cell(s->name)
            .cell(fmtDouble(pct(kern, user + kern), 1) + " %")
            .cell(fmtDouble(ledgerDriftPct(*s), 1) + " %");
    }
    return t.renderMarkdown();
}

std::string
Report::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"schema\": " << quoted(schema_) << ",\n  \"meta\": {";
    bool first = true;
    for (const auto &[k, v] : meta_) {
        os << (first ? "" : ",") << "\n    " << quoted(k) << ": "
           << quoted(v);
        first = false;
    }
    os << (meta_.empty() ? "" : "\n  ") << "},\n  \"sync\": [";

    first = true;
    for (const auto &s : sync_) {
        os << (first ? "" : ",") << "\n    {\n      \"name\": "
           << quoted(s.name) << ",\n      \"runs\": " << s.runs
           << ",\n      \"total_cycles\": " << s.totalCycles
           << ",\n      \"work_items\": " << s.workItems
           << ",\n      \"acquisitions\": "
           << s.profile.totalAcquisitions()
           << ",\n      \"contended\": " << s.profile.totalContended()
           << ",\n      \"locks\": [";
        // sites() is sorted by (addr, site); group runs of one addr.
        bool first_lock = true;
        auto it = s.profile.sites().begin();
        while (it != s.profile.sites().end()) {
            const sim::Addr addr = it->first.first;
            auto name_it = s.profile.lockNames().find(addr);
            os << (first_lock ? "" : ",") << "\n        {\"addr\": "
               << addr << ", \"class\": "
               << quoted(name_it == s.profile.lockNames().end()
                             ? std::string("?")
                             : name_it->second)
               << ", \"sites\": [";
            bool first_site = true;
            for (; it != s.profile.sites().end() &&
                   it->first.first == addr;
                 ++it) {
                const SyncSiteStats &st = it->second;
                os << (first_site ? "" : ",") << "\n          {\"site\": "
                   << quoted(s.profile.siteName(it->first.second))
                   << ", \"acquisitions\": " << st.acquisitions
                   << ", \"contended\": " << st.contended
                   << ", \"futex_waits\": " << st.futexWaits
                   << ",\n           \"wait_cycles\": "
                   << st.waitCycles.toJson()
                   << ",\n           \"hold_cycles\": "
                   << st.holdCycles.toJson() << "}";
                first_site = false;
            }
            os << "\n        ]}";
            first_lock = false;
        }
        os << "\n      ],\n      \"wait_edges\": [";
        bool first_edge = true;
        for (const auto &[key, e] : s.profile.waitEdges()) {
            os << (first_edge ? "" : ",") << "\n        {\"waiter\": "
               << key.first << ", \"owner\": " << key.second
               << ", \"count\": " << e.count << ", \"wait_cycles\": "
               << e.waitCycles << "}";
            first_edge = false;
        }
        os << "\n      ],\n      \"longest_waiter_chain\": ";
        const SyncProfile::Chain chain = s.profile.longestWaiterChain();
        os << "{\"tids\": [";
        for (std::size_t i = 0; i < chain.tids.size(); ++i)
            os << (i ? ", " : "") << chain.tids[i];
        os << "], \"wait_cycles\": " << chain.waitCycles << "}\n    }";
        first = false;
    }
    os << (sync_.empty() ? "" : "\n  ") << "],\n  \"kernel\": [";

    first = true;
    for (const auto &s : kernel_) {
        os << (first ? "" : ",") << "\n    {\n      \"name\": "
           << quoted(s.name) << ",\n      \"runs\": " << s.runs
           << ",\n      \"user_instructions\": "
           << s.profile.userInstructions()
           << ",\n      \"kernel_instructions\": "
           << s.profile.kernelInstructions()
           << ",\n      \"user_cycles\": " << s.profile.userCycles()
           << ",\n      \"kernel_cycles\": " << s.profile.kernelCycles()
           << ",\n      \"pec_user_instructions\": "
           << s.pecUserInstructions
           << ",\n      \"pec_kernel_instructions\": "
           << s.pecKernelInstructions << ",\n      \"threads\": [";
        bool first_thread = true;
        for (const auto &[tid, th] : s.profile.threads()) {
            os << (first_thread ? "" : ",") << "\n        {\"tid\": "
               << tid << ", \"name\": " << quoted(th.name)
               << ", \"user_cycles\": " << th.userCycles
               << ", \"kernel_cycles\": " << th.kernelCycles
               << ",\n         \"user_instructions\": "
               << th.userInstructions << ", \"kernel_instructions\": "
               << th.kernelInstructions
               << ",\n         \"voluntary_switches\": "
               << th.voluntarySwitches << ", \"involuntary_switches\": "
               << th.involuntarySwitches << ", \"pmis\": " << th.pmis
               << ",\n         \"syscalls\": [";
            bool first_sys = true;
            for (const auto &[nr, sc] : th.syscalls) {
                const char *nm = os::sysName(nr);
                os << (first_sys ? "" : ",") << "\n          {\"nr\": "
                   << nr << ", \"name\": "
                   << quoted(nm ? nm : "?") << ", \"calls\": "
                   << sc.calls << ",\n           \"latency_cycles\": "
                   << sc.latencyCycles.toJson() << "}";
                first_sys = false;
            }
            os << (th.syscalls.empty() ? "" : "\n         ") << "]}";
            first_thread = false;
        }
        os << "\n      ]\n    }";
        first = false;
    }
    os << (kernel_.empty() ? "" : "\n  ") << "],\n  \"sensitivity\": [";

    first = true;
    for (const auto &s : sensitivity_) {
        os << (first ? "" : ",") << "\n    {\n      \"name\": "
           << quoted(s.name) << ",\n      \"work_metric\": "
           << quoted(s.workMetric) << ",\n      \"baseline_work\": "
           << fmtDouble(s.baselineWork, 6)
           << ",\n      \"baseline_metrics\": {";
        bool first_metric = true;
        for (const auto &[k, v] : s.baselineMetrics) {
            os << (first_metric ? "" : ", ") << quoted(k) << ": "
               << fmtDouble(v, 6);
            first_metric = false;
        }
        os << "},\n      \"axes\": [";
        bool first_axis = true;
        for (const auto &a : s.axes) {
            os << (first_axis ? "" : ",") << "\n        {\"axis\": "
               << quoted(a.axis) << ", \"unit\": " << quoted(a.unit)
               << ", \"base_param\": " << fmtDouble(a.baseParam, 6)
               << ", \"score\": " << fmtDouble(a.score, 6)
               << ",\n         \"levels\": [";
            bool first_level = true;
            for (const auto &l : a.levels) {
                os << (first_level ? "" : ",")
                   << "\n          {\"param\": " << fmtDouble(l.param, 6)
                   << ", \"work\": " << fmtDouble(l.work, 6)
                   << ", \"work_rel_pct\": "
                   << fmtDouble(l.workRelPct, 6)
                   << ", \"elasticity\": "
                   << fmtDouble(l.elasticity, 6)
                   << ",\n           \"metrics\": {";
                first_metric = true;
                for (const auto &[k, v] : l.metrics) {
                    os << (first_metric ? "" : ", ") << quoted(k)
                       << ": " << fmtDouble(v, 6);
                    first_metric = false;
                }
                os << "}}";
                first_level = false;
            }
            os << (a.levels.empty() ? "" : "\n         ") << "]}";
            first_axis = false;
        }
        os << (s.axes.empty() ? "" : "\n      ") << "]\n    }";
        first = false;
    }
    os << (sensitivity_.empty() ? "" : "\n  ")
       << "],\n  \"timeline\": [";

    first = true;
    for (const auto &t : timeline_) {
        const std::uint64_t slices =
            t.cores.empty() ? 0 : t.cores.front().size();
        os << (first ? "" : ",") << "\n    {\n      \"name\": "
           << quoted(t.name) << ",\n      \"interval_ticks\": "
           << t.intervalTicks << ",\n      \"num_cores\": "
           << t.cores.size() << ",\n      \"num_slices\": " << slices
           << ",\n      \"events\": [";
        for (unsigned e = 0; e < sim::numEventTypes; ++e) {
            os << (e ? ", " : "")
               << quoted(std::string(sim::eventName(
                      static_cast<sim::EventType>(e))));
        }
        os << "],\n      \"cores\": [";
        bool first_core = true;
        for (std::size_t c = 0; c < t.cores.size(); ++c) {
            os << (first_core ? "" : ",") << "\n        {\"core\": "
               << c << ", \"slices\": [";
            bool first_slice = true;
            for (const auto &d : t.cores[c]) {
                os << (first_slice ? "" : ",") << "\n          [";
                for (unsigned e = 0; e < sim::numEventTypes; ++e) {
                    os << (e ? ", " : "")
                       << d.counts[e];
                }
                os << "]";
                first_slice = false;
            }
            os << (t.cores[c].empty() ? "" : "\n        ") << "]}";
            first_core = false;
        }
        os << (t.cores.empty() ? "" : "\n      ")
           << "],\n      \"phases\": [";
        bool first_phase = true;
        for (const auto &p : t.phases) {
            os << (first_phase ? "" : ",")
               << "\n        {\"first_slice\": " << p.firstSlice
               << ", \"slices\": " << p.numSlices << ", \"ipc\": "
               << fmtDouble(p.ipc, 6) << ", \"dominant\": "
               << quoted(p.dominant) << ",\n         \"rates\": {";
            bool first_rate = true;
            for (const auto &[k, v] : p.rates) {
                os << (first_rate ? "" : ", ") << quoted(k) << ": "
                   << fmtDouble(v, 6);
                first_rate = false;
            }
            os << "}}";
            first_phase = false;
        }
        os << (t.phases.empty() ? "" : "\n      ") << "]\n    }";
        first = false;
    }
    os << (timeline_.empty() ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

bool
Report::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string body = toJson();
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace limit::prof

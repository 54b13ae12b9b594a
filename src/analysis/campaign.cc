#include "analysis/campaign.hh"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "base/logging.hh"

namespace limit::analysis {

namespace {

// ---------------------------------------------------------------- SIGINT

volatile std::sig_atomic_t sigintDrain = 0;

extern "C" void
campaignSigintHandler(int)
{
    // Async-signal-safe: set the flag and disarm so a second ^C gets
    // the default (killing) disposition.
    sigintDrain = 1;
    std::signal(SIGINT, SIG_DFL);
}

/** RAII install/restore of the drain handler. */
class SigintDrainScope
{
  public:
    explicit SigintDrainScope(bool install) : installed_(install)
    {
        if (installed_) {
            sigintDrain = 0;
            prev_ = std::signal(SIGINT, campaignSigintHandler);
        }
    }

    ~SigintDrainScope()
    {
        if (installed_)
            std::signal(SIGINT, prev_);
    }

  private:
    bool installed_;
    void (*prev_)(int) = SIG_DFL;
};

// ---------------------------------------------------------------- JSON

/** Escape a string for a JSON string literal. */
std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Consume a JSON string literal's body starting after the opening
 * quote; true on success with `pos` one past the closing quote.
 * Handles exactly the escapes jsonEscape emits.
 */
bool
jsonUnescape(const std::string &line, std::size_t &pos, std::string &out)
{
    out.clear();
    while (pos < line.size()) {
        const char c = line[pos];
        if (c == '"') {
            ++pos;
            return true;
        }
        if (c == '\\') {
            if (pos + 1 >= line.size())
                return false;
            const char e = line[pos + 1];
            pos += 2;
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'u': {
                if (pos + 4 > line.size())
                    return false;
                unsigned v = 0;
                for (unsigned k = 0; k < 4; ++k) {
                    const char h = line[pos + k];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                if (v > 0xff)
                    return false; // jsonEscape only emits control bytes
                pos += 4;
                out += static_cast<char>(v);
                break;
              }
              default:
                return false;
            }
        } else {
            out += c;
            ++pos;
        }
    }
    return false; // unterminated
}

/** Consume `expect` at `pos`; true and advance on match. */
bool
consume(const std::string &line, std::size_t &pos, std::string_view expect)
{
    if (line.compare(pos, expect.size(), expect) != 0)
        return false;
    pos += expect.size();
    return true;
}

/** Consume a decimal uint64 at `pos`. */
bool
consumeUint(const std::string &line, std::size_t &pos, std::uint64_t &out)
{
    if (pos >= line.size() || line[pos] < '0' || line[pos] > '9')
        return false;
    out = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
        out = out * 10 + static_cast<std::uint64_t>(line[pos] - '0');
        ++pos;
    }
    return true;
}

// ---------------------------------------------------------------- journal

/** One journaled completion. */
struct JournalRecord
{
    std::string value;
    guard::ExecMode mode = guard::ExecMode::Superblock;
    unsigned attempts = 1;
};

/**
 * Parse one journal line. Strict: anything that doesn't match the
 * schema exactly — including a torn final line from a crash mid-write
 * — is ignored rather than trusted.
 */
bool
parseJournalLine(const std::string &line, const std::string &config,
                 std::uint64_t &job, JournalRecord &rec)
{
    std::size_t pos = 0;
    if (!consume(line, pos, "{\"rec\":\"job\",\"config\":\""))
        return false;
    if (!consume(line, pos, config) || !consume(line, pos, "\",\"job\":"))
        return false;
    if (!consumeUint(line, pos, job))
        return false;
    if (!consume(line, pos, ",\"mode\":\""))
        return false;
    const std::size_t modeEnd = line.find('"', pos);
    if (modeEnd == std::string::npos)
        return false;
    if (!guard::parseMode(line.substr(pos, modeEnd - pos), rec.mode))
        return false;
    pos = modeEnd + 1;
    if (!consume(line, pos, ",\"attempts\":"))
        return false;
    std::uint64_t attempts = 0;
    if (!consumeUint(line, pos, attempts))
        return false;
    rec.attempts = static_cast<unsigned>(attempts);
    if (!consume(line, pos, ",\"value\":\""))
        return false;
    if (!jsonUnescape(line, pos, rec.value))
        return false;
    return consume(line, pos, "}") && pos == line.size();
}

/**
 * Load completed-job records matching `config` from a journal file.
 * Only '\n'-terminated lines count (a crash mid-record leaves a torn
 * tail, which a terminator-less read would misparse); records for
 * other configs are skipped silently (one shared journal file can
 * serve several scenarios).
 */
std::map<std::size_t, JournalRecord>
loadJournal(const std::string &path, const std::string &config)
{
    std::map<std::size_t, JournalRecord> out;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::size_t start = 0;
    while (start < content.size()) {
        const std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos)
            break; // torn tail: never trust it
        const std::string line = content.substr(start, nl - start);
        start = nl + 1;
        std::uint64_t job = 0;
        JournalRecord rec;
        if (parseJournalLine(line, config, job, rec))
            out[static_cast<std::size_t>(job)] = std::move(rec);
    }
    return out;
}

/** Append-only fsync'd journal writer. */
class JournalWriter
{
  public:
    JournalWriter(const std::string &path, const std::string &config,
                  std::size_t jobs)
    {
        fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        fatal_if(fd_ < 0, "cannot open campaign journal '", path, "'");
        const off_t size = ::lseek(fd_, 0, SEEK_END);
        if (size == 0) {
            std::ostringstream os;
            os << "{\"rec\":\"campaign\",\"schema\":\"limitpp-journal"
               << "-v1\",\"config\":\"" << config
               << "\",\"jobs\":" << jobs << "}\n";
            writeAll(os.str());
        }
    }

    ~JournalWriter()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    void
    append(const std::string &config, std::size_t job,
           const JobOutcome &outcome)
    {
        std::ostringstream os;
        os << "{\"rec\":\"job\",\"config\":\"" << config
           << "\",\"job\":" << job << ",\"mode\":\""
           << guard::modeName(outcome.mode)
           << "\",\"attempts\":" << outcome.attempts << ",\"value\":\""
           << jsonEscape(outcome.value) << "\"}\n";
        std::lock_guard<std::mutex> lock(mutex_);
        writeAll(os.str());
    }

  private:
    void
    writeAll(const std::string &data)
    {
        // One write() per record (O_APPEND keeps records atomic with
        // respect to each other) followed by fsync: a SIGKILL can
        // lose at most the in-flight record, never corrupt old ones.
        std::size_t done = 0;
        while (done < data.size()) {
            const ssize_t n =
                ::write(fd_, data.data() + done, data.size() - done);
            if (n < 0) {
                warn("campaign journal write failed; records may be "
                     "missing");
                return;
            }
            done += static_cast<std::size_t>(n);
        }
        ::fsync(fd_);
    }

    int fd_ = -1;
    std::mutex mutex_;
};

} // namespace

StatusReporter::StatusReporter(std::string path, std::size_t total_jobs)
    : path_(std::move(path)), total_(total_jobs),
      start_(std::chrono::steady_clock::now())
{
    if (enabled())
        maybeWrite(true); // heartbeat exists from the first moment
}

StatusReporter::~StatusReporter()
{
    flush();
}

void
StatusReporter::started()
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++inFlight_;
    maybeWrite(false);
}

void
StatusReporter::finished(guard::ExecMode mode, unsigned attempts,
                         bool failed, bool diverged)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (inFlight_ > 0)
        --inFlight_;
    ++done_;
    if (failed)
        ++failed_;
    else
        ++modes_[static_cast<unsigned>(mode) % modes_.size()];
    if (attempts > 1)
        ++retried_;
    if (diverged)
        ++quarantined_;
    maybeWrite(false);
}

void
StatusReporter::resumed()
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++resumed_;
    maybeWrite(false);
}

void
StatusReporter::skipped()
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++skipped_;
    maybeWrite(false);
}

void
StatusReporter::flush()
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    maybeWrite(true);
}

void
StatusReporter::maybeWrite(bool force)
{
    // Called with mutex_ held. Throttled so a storm of sub-millisecond
    // jobs doesn't turn the heartbeat into an fsync bottleneck.
    const auto now = std::chrono::steady_clock::now();
    if (!force && lastWrite_.time_since_epoch().count() != 0 &&
        now - lastWrite_ < std::chrono::milliseconds(200)) {
        return;
    }
    lastWrite_ = now;

    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    const std::size_t accounted = done_ + resumed_ + skipped_;
    const std::size_t remaining =
        total_ > accounted ? total_ - accounted : 0;
    // Fresh-job throughput predicts the rest; resumed/skipped jobs are
    // free and excluded from the rate. -1 = not estimable yet.
    const double eta = (done_ > 0 && elapsed > 0)
        ? static_cast<double>(remaining) *
            (elapsed / static_cast<double>(done_))
        : -1.0;

    std::ostringstream os;
    os << "{\"schema\":\"limitpp-status-v1\""
       << ",\"total\":" << total_
       << ",\"done\":" << done_
       << ",\"in_flight\":" << inFlight_
       << ",\"resumed\":" << resumed_
       << ",\"skipped\":" << skipped_
       << ",\"failed\":" << failed_
       << ",\"retried\":" << retried_
       << ",\"quarantined\":" << quarantined_
       << ",\"modes\":{";
    for (unsigned m = 0; m < modes_.size(); ++m) {
        os << (m == 0 ? "" : ",") << '"'
           << guard::modeName(static_cast<guard::ExecMode>(m))
           << "\":" << modes_[m];
    }
    char num[32];
    std::snprintf(num, sizeof(num), "%.3f", elapsed);
    os << "},\"elapsed_sec\":" << num;
    std::snprintf(num, sizeof(num), "%.3f", eta);
    os << ",\"eta_sec\":" << num
       << ",\"finished\":"
       << (accounted >= total_ && inFlight_ == 0 ? "true" : "false")
       << "}\n";

    // Write-to-temp + rename: a reader polling the path always sees a
    // complete document, never a torn one.
    const std::string tmp = path_ + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr)
        return; // heartbeat is best-effort; never fail the campaign
    const std::string text = os.str();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::rename(tmp.c_str(), path_.c_str());
}

CampaignOptions
campaignOptions(const BenchArgs &args, std::string configFingerprint)
{
    CampaignOptions o;
    o.jobs = args.jobs;
    o.jobTimeoutSec = args.jobTimeoutSec;
    o.journalPath = args.journal;
    o.resume = args.resume;
    o.statusPath = args.statusFile;
    o.configFingerprint = std::move(configFingerprint);
    o.sentinel.enabled = args.sentinel;
    o.sentinel.sampleEvery =
        args.sentinelEvery > 0 ? args.sentinelEvery : 1;
    return o;
}

std::string
configHash(std::string_view canonical)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : canonical) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
encodeDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

bool
decodeDouble(std::string_view text, double &out)
{
    if (text.empty())
        return false;
    const std::string s(text);
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size();
}

namespace detail {

bool
sigintDrainRequested()
{
    return sigintDrain != 0;
}

void
resetSigintDrain()
{
    sigintDrain = 0;
}

GuardedOutcome
runGuardedJob(const CampaignOptions &options, guard::Sentinel *sentinel,
              std::size_t index,
              const std::function<void(guard::ExecMode)> &attempt)
{
    GuardedOutcome out;
    guard::ExecMode mode = guard::ExecMode::Superblock;
    if (sentinel != nullptr)
        mode = sentinel->modeFor(mode);

    auto runOnce = [&](guard::ExecMode m, std::string &error) {
        try {
            std::optional<sim::ScopedWatchdog> wd;
            if (options.jobTimeoutSec > 0)
                wd.emplace(options.jobTimeoutSec);
            guard::ModeScope ms(m);
            attempt(m);
            return true;
        } catch (const sim::WatchdogTimeout &e) {
            error = std::string("timed out: ") + e.what();
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }
        return false;
    };

    // First run, plus at most one retry a rung down the ladder: a
    // transient wedge (runaway horizon, fast-path bug) often clears
    // in a slower mode, and per-op is the last word either way.
    for (unsigned tries = 0; tries < 2; ++tries) {
        ++out.attempts;
        std::string error;
        if (runOnce(mode, error)) {
            out.mode = mode;
            out.failed = false;
            break;
        }
        out.failed = true;
        std::ostringstream os;
        if (!out.error.empty())
            os << out.error << "; ";
        os << "attempt " << out.attempts << " ("
           << guard::modeName(mode) << "): " << error;
        out.error = os.str();
        const guard::ExecMode slower = guard::nextSlower(mode);
        if (slower == mode)
            break; // already per-op: nothing slower to try
        mode = slower;
    }
    if (out.failed)
        return out;

    if (sentinel == nullptr || !sentinel->shouldCheck(index, out.mode))
        return out;

    const auto probe = [&](guard::ExecMode m, std::uint64_t div) {
        std::optional<sim::ScopedWatchdog> wd;
        if (options.jobTimeoutSec > 0)
            wd.emplace(options.jobTimeoutSec);
        guard::ModeScope ms(m);
        guard::ProbeScope ps(div);
        attempt(m);
        return ps.fingerprint();
    };

    // Cross-check; on divergence walk down the ladder, re-running the
    // full job and re-checking, until a mode agrees with the oracle
    // (shouldCheck self-terminates the loop at per-op).
    guard::ExecMode m = out.mode;
    while (sentinel->check(index, m, probe)) {
        out.diverged = true;
        m = sentinel->modeFor(guard::nextSlower(m));
        ++out.attempts;
        std::string error;
        if (!runOnce(m, error)) {
            out.failed = true;
            std::ostringstream os;
            os << "quarantine re-run (" << guard::modeName(m)
               << "): " << error;
            out.error = os.str();
            return out;
        }
        out.mode = m;
    }
    return out;
}

} // namespace detail

CampaignResult
Campaign::run(std::size_t count, const JobFn &fn)
{
    CampaignResult result;
    result.jobs.resize(count);

    const std::string &config = options_.configFingerprint;
    std::map<std::size_t, JournalRecord> resumed;
    if (options_.resume && !options_.journalPath.empty()) {
        resumed = loadJournal(options_.journalPath, config);
        if (resumed.empty()) {
            warn("campaign resume: no matching records in '",
                 options_.journalPath, "' (config ", config,
                 "); running everything");
        }
    }

    std::optional<JournalWriter> journal;
    if (!options_.journalPath.empty())
        journal.emplace(options_.journalPath, config, count);

    guard::Sentinel sentinel(options_.sentinel);
    guard::Sentinel *guardPtr =
        options_.sentinel.enabled ? &sentinel : nullptr;

    StatusReporter status(options_.statusPath, count);

    SigintDrainScope drain(options_.drainOnSigint);

    ParallelRunner pool(options_.jobs);
    // Jobs report through their JobOutcome slot and never throw, so a
    // bad job can't cancel its siblings; the outcome vector keeps
    // submission order regardless of worker interleaving.
    std::vector<char> placeholder = pool.map(count, [&](std::size_t i) {
        JobOutcome &out = result.jobs[i];
        if (auto it = resumed.find(i); it != resumed.end()) {
            out.value = it->second.value;
            out.mode = it->second.mode;
            out.attempts = it->second.attempts;
            out.fromJournal = true;
            status.resumed();
            return '\0';
        }
        if (options_.drainOnSigint && detail::sigintDrainRequested()) {
            out.skipped = true;
            out.failed = true;
            out.error = "interrupted (SIGINT drain)";
            status.skipped();
            return '\0';
        }
        status.started();
        auto attempt = [&](guard::ExecMode) {
            std::string value = fn(i);
            if (guard::ProbeScope::active() == nullptr)
                out.value = std::move(value);
        };
        const detail::GuardedOutcome g =
            detail::runGuardedJob(options_, guardPtr, i, attempt);
        status.finished(g.mode, g.attempts, g.failed, g.diverged);
        out.mode = g.mode;
        out.attempts = g.attempts;
        out.failed = g.failed;
        out.error = g.error;
        if (g.failed)
            out.value.clear();
        else if (journal)
            journal->append(config, i, out);
        return '\0';
    });
    (void)placeholder;

    for (const JobOutcome &out : result.jobs) {
        if (out.fromJournal)
            ++result.resumedJobs;
        if (out.skipped)
            ++result.skippedJobs;
        if (out.failed)
            ++result.failedJobs;
    }
    result.interrupted =
        options_.drainOnSigint && detail::sigintDrainRequested();
    result.sentinelChecks = sentinel.checksRun();
    result.divergences = sentinel.reports();
    sentinel.writeReport();
    return result;
}

} // namespace limit::analysis

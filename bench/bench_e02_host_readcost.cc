/**
 * @file
 * E2 — Real-hardware analogue of the access-cost comparison.
 *
 * The container exposes no PMU (rdpmc would fault), so this bench
 * measures the host-silicon costs that bound each access method:
 *
 *   - rdtsc / fenced rdtsc: the userspace counter-read fast path the
 *     PEC read is built from (rdpmc costs within ~2x of rdtsc);
 *   - clock_gettime: the vDSO path — userspace, no kernel crossing;
 *   - getpid via syscall(2): the cheapest possible kernel crossing,
 *     a strict lower bound on any perf_event read() syscall;
 *   - pread of /proc/self/stat: a realistic "ask the kernel for
 *     accounting data" round trip, the perf/rusage class.
 *
 * Expected shape: the userspace paths sit one to two orders of
 * magnitude below anything that enters the kernel — the gap the
 * paper's fast reads exploit.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <vector>
#include <sys/syscall.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "analysis/args.hh"

namespace {

void
BM_rdtsc(benchmark::State &state)
{
#if defined(__x86_64__)
    for (auto _ : state) {
        benchmark::DoNotOptimize(__rdtsc());
    }
#else
    for (auto _ : state) {
        struct timespec ts;
        clock_gettime(CLOCK_MONOTONIC, &ts);
        benchmark::DoNotOptimize(ts);
    }
#endif
}
BENCHMARK(BM_rdtsc);

void
BM_rdtsc_fenced(benchmark::State &state)
{
#if defined(__x86_64__)
    unsigned aux = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(__rdtscp(&aux));
    }
#else
    for (auto _ : state) {
        struct timespec ts;
        clock_gettime(CLOCK_MONOTONIC, &ts);
        benchmark::DoNotOptimize(ts);
    }
#endif
}
BENCHMARK(BM_rdtsc_fenced);

void
BM_clock_gettime_vdso(benchmark::State &state)
{
    for (auto _ : state) {
        struct timespec ts;
        clock_gettime(CLOCK_MONOTONIC, &ts);
        benchmark::DoNotOptimize(ts);
    }
}
BENCHMARK(BM_clock_gettime_vdso);

void
BM_syscall_getpid(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(syscall(SYS_getpid));
    }
}
BENCHMARK(BM_syscall_getpid);

void
BM_proc_self_stat_read(benchmark::State &state)
{
    const int fd = open("/proc/self/stat", O_RDONLY);
    if (fd < 0) {
        state.SkipWithError("cannot open /proc/self/stat");
        return;
    }
    char buf[512];
    for (auto _ : state) {
        const ssize_t n = pread(fd, buf, sizeof(buf), 0);
        benchmark::DoNotOptimize(n);
    }
    close(fd);
}
BENCHMARK(BM_proc_self_stat_read);

} // namespace

// Every --benchmark_* argument goes to google-benchmark; everything
// else goes through the suite's shared parser (analysis/args.hh), so E2
// accepts exactly the flags every other bench does and rejects the rest
// the same way. It then ignores them: this bench measures real host
// hardware, so simulated seeds, fan-out, tracing, fault injection,
// profiling and timelines do not apply.
int
main(int argc, char **argv)
{
    std::vector<char *> suite_argv{argv[0]};
    std::vector<char *> bench_argv{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const bool ours = std::strncmp(argv[i], "--benchmark_", 12) != 0;
        (ours ? suite_argv : bench_argv).push_back(argv[i]);
    }
    limit::analysis::parseBenchArgs(static_cast<int>(suite_argv.size()),
                                    suite_argv.data(), {},
                                    "ignored: E2 times host hardware");
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

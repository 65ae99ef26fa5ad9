#include "runner/runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "registry/registry.hh"
#include "runner/journal.hh"
#include "runner/progress.hh"
#include "runner/thread_pool.hh"
#include "trace/pipeline.hh"

namespace mithril::runner
{

// ----------------------------------------------------- JobStatus

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok:
        return "ok";
    case JobStatus::Failed:
        return "failed";
    case JobStatus::Timeout:
        return "timeout";
    case JobStatus::Skipped:
        return "skipped";
    }
    return "?";
}

JobStatus
jobStatusFromName(const std::string &name)
{
    for (JobStatus s : {JobStatus::Ok, JobStatus::Failed,
                        JobStatus::Timeout, JobStatus::Skipped}) {
        if (name == jobStatusName(s))
            return s;
    }
    throw registry::SpecError("unknown job status '" + name +
                              "' (want ok|failed|timeout|skipped)");
}

// ----------------------------------------------------- SweepResult

const JobResult *
SweepResult::find(const std::string &scheme, std::uint32_t flip_th,
                  const std::string &workload,
                  const std::string &attack,
                  std::uint32_t rfm_th) const
{
    for (const JobResult &r : results) {
        if (r.job.isBaseline)
            continue;
        if (r.job.spec.scheme != scheme ||
            r.job.spec.flipTh != flip_th)
            continue;
        if (rfm_th != ~0u && r.job.spec.rfmTh != rfm_th)
            continue;
        if (r.job.spec.workload != workload ||
            r.job.spec.attack != attack)
            continue;
        return &r;
    }
    return nullptr;
}

const JobResult *
SweepResult::baseline(const std::string &workload,
                      const std::string &attack) const
{
    for (const JobResult &r : results) {
        if (r.job.isBaseline && r.job.spec.workload == workload &&
            r.job.spec.attack == attack)
            return &r;
    }
    return nullptr;
}

std::size_t
SweepResult::failedCount() const
{
    std::size_t count = 0;
    for (const JobResult &r : results)
        count += r.failed() ? 1 : 0;
    return count;
}

std::size_t
SweepResult::countByStatus(JobStatus status) const
{
    std::size_t count = 0;
    for (const JobResult &r : results)
        count += r.status == status ? 1 : 0;
    return count;
}

std::size_t
SweepResult::restoredCount() const
{
    std::size_t count = 0;
    for (const JobResult &r : results)
        count += r.restored ? 1 : 0;
    return count;
}

std::string
SweepResult::statusSummary() const
{
    char buf[64];
    std::string out;
    std::snprintf(buf, sizeof(buf), "%zu ok",
                  countByStatus(JobStatus::Ok));
    out += buf;
    for (JobStatus s : {JobStatus::Failed, JobStatus::Timeout,
                        JobStatus::Skipped}) {
        const std::size_t n = countByStatus(s);
        if (n == 0)
            continue;
        std::snprintf(buf, sizeof(buf), ", %zu %s", n,
                      jobStatusName(s));
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), " (%zu job%s", results.size(),
                  results.size() == 1 ? "" : "s");
    out += buf;
    const std::size_t resumed = restoredCount();
    if (resumed > 0) {
        std::snprintf(buf, sizeof(buf), ", %zu resumed", resumed);
        out += buf;
    }
    out += ')';
    return out;
}

// ----------------------------------------------------- SweepRunner

namespace
{

/** One attempt's outcome. */
struct AttemptResult
{
    JobStatus status = JobStatus::Ok;
    std::string error;
    sim::RunMetrics metrics;
};

/** Watchdog handshake around an AttemptResult produced on a helper
 *  thread. Everything the attempt needs is copied in, so an
 *  abandoned (timed-out) attempt can finish late against its own
 *  state and be discarded harmlessly. */
struct AttemptState
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    /** Set by the watchdog when it gives up; the worker then owns
     *  the state solely through its shared_ptr and its late result
     *  is dropped on the floor. */
    bool abandoned = false;
    AttemptResult result;
};

/** Run fn(job) into result, converting ANY exception into Failed —
 *  a rejected configuration (SpecError), a std::exception from deep
 *  inside a scheme, or a foreign throw all cost one grid cell, never
 *  the sweep. */
void
executeAttempt(AttemptResult &result, const Job &job,
               SweepRunner::JobFn fn)
{
    try {
        result.metrics = fn(job);
        result.status = JobStatus::Ok;
    } catch (const registry::SpecError &err) {
        result.status = JobStatus::Failed;
        result.error = err.what();
    } catch (const std::exception &err) {
        result.status = JobStatus::Failed;
        result.error = std::string("unhandled exception: ") +
                       err.what();
    } catch (...) {
        result.status = JobStatus::Failed;
        result.error = "unhandled non-standard exception";
    }
}

/**
 * One attempt under the watchdog: the body runs on a helper thread
 * while this (pool) thread waits with a deadline. On timeout the
 * helper is abandoned — detached, its eventual result discarded —
 * and the attempt reports Timeout. The pool thread itself never
 * blocks past the budget, so one hung job cannot wedge the sweep.
 */
void
attemptWithWatchdog(AttemptResult &result, const Job &job,
                    SweepRunner::JobFn fn, double timeout_sec)
{
    auto state = std::make_shared<AttemptState>();
    std::thread worker([state, job, fn]() {
        AttemptResult scratch;
        executeAttempt(scratch, job, fn);
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->abandoned)
            return; // Too late; the watchdog already reported.
        state->result = std::move(scratch);
        state->done = true;
        state->cv.notify_all();
    });

    std::unique_lock<std::mutex> lock(state->mutex);
    const bool finished = state->cv.wait_for(
        lock, std::chrono::duration<double>(timeout_sec),
        [&] { return state->done; });
    if (finished) {
        lock.unlock();
        worker.join();
        result = std::move(state->result);
        return;
    }
    state->abandoned = true;
    lock.unlock();
    worker.detach();
    result.status = JobStatus::Timeout;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "job watchdog: exceeded %gs budget", timeout_sec);
    result.error = buf;
}

} // namespace

SweepRunner::SweepRunner(RunnerOptions options) : options_(options) {}

SweepResult
SweepRunner::run(const SweepSpec &spec) const
{
    return run(spec, [](const Job &job) {
        return sim::runExperiment(job.spec);
    });
}

SweepResult
SweepRunner::run(const SweepSpec &spec, JobFn fn) const
{
    SweepResult out;
    out.spec = spec;

    if (options_.resume && options_.journal.empty())
        throw registry::SpecError(
            "resume=1 requires journal=<path> — there is nothing to "
            "resume from without a checkpoint journal");

    // Arm requested failpoints before anything else can hit a site;
    // an unknown site name is a config error and fails the sweep up
    // front with the full site list.
    const bool armedHere = !spec.failpoints.empty();
    if (armedHere)
        failpoint::armFromSpec(spec.failpoints);

    // Compose the replay corpus exactly once, before any job opens
    // it — jobs never carry the pipeline, so N grid points replay
    // one materialization instead of racing N writers on one path.
    if (!spec.base.tracePipeline.empty()) {
        try {
            trace::materializePipeline(
                spec.base.tracePipeline,
                spec.tunables.getString("trace", ""), spec.base.seed);
        } catch (const registry::SpecError &err) {
            // A broken pipeline fails every act-trace job, so fail
            // the sweep up front with the real message.
            fatal("%s", err.what());
        }
    }

    std::vector<Job> jobs = spec.expand();
    out.results.resize(jobs.size());

    // Restore journaled results before the pool starts: those slots
    // are final, their jobs never rerun, and the sinks will re-emit
    // them byte-identically to the uninterrupted run.
    std::unique_ptr<SweepJournal> journal;
    if (!options_.journal.empty()) {
        const std::uint64_t fp = sweepFingerprint(jobs);
        if (options_.resume) {
            auto restored =
                SweepJournal::load(options_.journal, fp, jobs);
            for (auto &[index, result] : restored)
                out.results[index] = std::move(result);
        }
        journal = std::make_unique<SweepJournal>(
            options_.journal, fp, jobs.size(), options_.resume);
    }

    ProgressReporter progress(jobs.size(), options_.progress);
    std::atomic<bool> abort{false};
    std::atomic<bool> journalBroken{false};
    ThreadPool pool(options_.jobs);
    pool.parallelFor(jobs.size(), [&](std::size_t i) {
        JobResult &slot = out.results[i];
        if (slot.restored) {
            // Already final from the journal; keep strict semantics
            // coherent — a restored failure still fail-fasts.
            if (options_.strict && slot.failed())
                abort.store(true, std::memory_order_relaxed);
            progress.jobDone(slot.job.label);
            return;
        }
        slot.job = jobs[i];
        if (options_.strict &&
            abort.load(std::memory_order_relaxed)) {
            slot.status = JobStatus::Skipped;
            slot.error = "skipped: an earlier job failed and "
                         "strict (fail-fast) mode is on";
            progress.jobDone(slot.job.label);
            return;
        }

        const auto t0 = std::chrono::steady_clock::now();
        AttemptResult attempt;
        unsigned attempts = 0;
        for (;;) {
            ++attempts;
            attempt = AttemptResult{};
            if (options_.jobTimeout > 0.0) {
                attemptWithWatchdog(attempt, slot.job, fn,
                                    options_.jobTimeout);
            } else {
                // No watchdog: exactly the historical inline path.
                executeAttempt(attempt, slot.job, fn);
            }
            if (attempt.status == JobStatus::Ok ||
                attempts > options_.retries) {
                break;
            }
            // Exponential backoff, then rerun with the identical
            // spec and seed — a success on any attempt is
            // byte-identical to an untroubled first run.
            const double ms = options_.retryBackoffMs *
                              static_cast<double>(1u
                                                  << (attempts - 1));
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(ms));
        }
        slot.status = attempt.status;
        slot.error = std::move(attempt.error);
        slot.metrics = std::move(attempt.metrics);
        slot.attempts = attempts;
        slot.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        if (options_.strict && slot.failed())
            abort.store(true, std::memory_order_relaxed);

        // Checkpoint the completed result. A journal I/O failure
        // must not cost finished work: warn, stop journaling, keep
        // sweeping (the run simply loses resumability).
        if (journal && !journalBroken.load()) {
            try {
                journal->append(slot);
            } catch (const std::exception &err) {
                if (!journalBroken.exchange(true))
                    warn("checkpoint journal disabled: %s",
                         err.what());
            }
        }
        progress.jobDone(slot.job.label);
    });

    if (armedHere)
        failpoint::disarmAll();
    return out;
}

} // namespace mithril::runner

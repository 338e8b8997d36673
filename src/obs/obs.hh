/**
 * @file
 * Instrumentation macros: the only interface the instrumented hot
 * paths (evaluator, DPipe, TileSeek, serve) touch.
 *
 * With the default build (TRANSFUSION_OBS=ON, which defines
 * TRANSFUSION_OBS_ENABLED=1) the macros forward to the thread's
 * current Registry / the global TraceSession.  With
 * -DTRANSFUSION_OBS=OFF every macro expands to a statement that
 * generates no code: arguments sit inside an `if (false)` branch,
 * so they are parsed and name-checked (keeping call sites honest
 * and variables "used" under -Werror) but never evaluated and
 * entirely folded away.
 *
 * Larger instrumentation blocks that would compute helper values
 * (label strings, aggregate sums) wrap in TF_OBS_ONLY(...) so the
 * OFF build pays nothing at all.
 */

#ifndef TRANSFUSION_OBS_OBS_HH
#define TRANSFUSION_OBS_OBS_HH

#include "obs/registry.hh"
#include "obs/trace.hh"

#ifndef TRANSFUSION_OBS_ENABLED
#define TRANSFUSION_OBS_ENABLED 1
#endif

#define TF_OBS_CONCAT_IMPL(a, b) a##b
#define TF_OBS_CONCAT(a, b) TF_OBS_CONCAT_IMPL(a, b)

#if TRANSFUSION_OBS_ENABLED

/**
 * The interned id of literal metric name `name`, resolved the first
 * time this call site runs and kept in a function-local static.
 * `"" name` only compiles for a string literal, so a dynamic name
 * can never be cached as whichever value reached the site first;
 * dynamic names go through obs::metricKey / obs::internMetric and
 * the *_ID macros.
 */
#define TF_METRIC_ID(name)                                             \
    ([]() -> ::transfusion::obs::MetricId {                            \
        static const ::transfusion::obs::MetricId tf_obs_id =          \
            ::transfusion::obs::internMetric("" name);                 \
        return tf_obs_id;                                              \
    }())

/** Add `delta` to literal-named counter `name` in the thread's
 *  current registry. */
#define TF_COUNT(name, delta) TF_COUNT_ID(TF_METRIC_ID(name), (delta))

/** Accumulate `delta` into literal-named gauge `name`. */
#define TF_GAUGE_ADD(name, delta)                                      \
    TF_GAUGE_ADD_ID(TF_METRIC_ID(name), (delta))

/** Raise literal-named peak gauge `name` to at least `value`. */
#define TF_GAUGE_MAX(name, value)                                      \
    TF_GAUGE_MAX_ID(TF_METRIC_ID(name), (value))

/** TF_COUNT / TF_GAUGE_ADD / TF_GAUGE_MAX on an already interned
 *  obs::MetricId (a metricKey or a hoisted internMetric). */
#define TF_COUNT_ID(id, delta)                                         \
    ::transfusion::obs::currentRegistry().counterAdd((id), (delta))
#define TF_GAUGE_ADD_ID(id, delta)                                     \
    ::transfusion::obs::currentRegistry().gaugeAdd((id), (delta))
#define TF_GAUGE_MAX_ID(id, value)                                     \
    ::transfusion::obs::currentRegistry().gaugeMax((id), (value))

/** Trace span covering the rest of the enclosing scope.  `name` is
 *  a `const char *` that outlives the span (a literal or a static
 *  table entry); nothing is built while tracing is off. */
#define TF_SPAN(name)                                                  \
    ::transfusion::obs::SpanGuard TF_OBS_CONCAT(tf_obs_span_,          \
                                                __COUNTER__)((name))

/** Wall-clock timer over the rest of the enclosing scope, under
 *  literal name `name`. */
#define TF_TIMER(name)                                                 \
    ::transfusion::obs::TimerGuard TF_OBS_CONCAT(tf_obs_timer_,        \
                                                 __COUNTER__)(         \
        TF_METRIC_ID(name))

/** Compile `...` only when observability is on. */
#define TF_OBS_ONLY(...) __VA_ARGS__

#else // !TRANSFUSION_OBS_ENABLED

#define TF_OBS_NOOP2(a, b)                                             \
    do {                                                               \
        if (false) {                                                   \
            (void)(a);                                                 \
            (void)(b);                                                 \
        }                                                              \
    } while (0)

#define TF_OBS_NOOP1(a)                                                \
    do {                                                               \
        if (false) {                                                   \
            (void)(a);                                                 \
        }                                                              \
    } while (0)

// Literal-named macros keep the literal check when compiled out.
#define TF_COUNT(name, delta) TF_OBS_NOOP2("" name, delta)
#define TF_GAUGE_ADD(name, delta) TF_OBS_NOOP2("" name, delta)
#define TF_GAUGE_MAX(name, value) TF_OBS_NOOP2("" name, value)
#define TF_COUNT_ID(id, delta) TF_OBS_NOOP2(id, delta)
#define TF_GAUGE_ADD_ID(id, delta) TF_OBS_NOOP2(id, delta)
#define TF_GAUGE_MAX_ID(id, value) TF_OBS_NOOP2(id, value)
#define TF_SPAN(name) TF_OBS_NOOP1(name)
#define TF_TIMER(name) TF_OBS_NOOP1("" name)
#define TF_OBS_ONLY(...)

#endif // TRANSFUSION_OBS_ENABLED

#endif // TRANSFUSION_OBS_OBS_HH

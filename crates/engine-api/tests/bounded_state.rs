//! Bounded engine state: an engine built without the request log frees
//! each request's state when it resolves, so the heap it holds stays
//! flat however many requests it serves. With the log kept, the same
//! run grows by a few hundred bytes per request — which also proves
//! the measurement can see the leak it guards against.
//!
//! A counting global allocator tracks the bytes held by the whole test
//! process. Each run measures the heap once 10% of its requests were
//! submitted and again once every request resolved (engine still
//! running), and reports the difference. Runs are serialised, because
//! the counter is process-wide.
//!
//! The `#[ignore]`d 1M-request variants are the release soak:
//! `cargo test --release -p pard-engine-api --test bounded_state -- --ignored`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pard_core::PardConfig;
use pard_engine_api::{
    Backend, ClusterConfig, Completion, EngineBuilder, EngineHandle, LiveConfig, SubmitSpec,
};
use pard_pipeline::AppKind;
use pard_sim::{SimDuration, SimTime};

/// Heap bytes currently allocated by the process.
static HELD: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            HELD.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            HELD.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HELD.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            HELD.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One measurement at a time: the allocation counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Growth allowed without the log, between the 10% mark and the end of
/// a run, whatever its length: the in-flight table and the policy
/// queues may still reach a new peak capacity after the mark.
const BOUNDED_GROWTH: isize = 1 << 20;

/// Growth the kept log must show per request after the 10% mark.
const KEPT_BYTES_PER_REQ: isize = 300;

fn held() -> isize {
    HELD.load(Ordering::Relaxed)
}

/// Counts completions; stores nothing per request.
fn count_resolved(engine: &dyn EngineHandle) -> Arc<AtomicU64> {
    let resolved = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&resolved);
    engine.set_completion_handler(Arc::new(move |_: Completion| {
        counter.fetch_add(1, Ordering::Relaxed);
    }));
    resolved
}

/// Every 9th request is a 1 ms canary, dropped on its first pop.
fn request(i: u64) -> SubmitSpec {
    let spec = SubmitSpec::default().with_tag(i + 1);
    if i.is_multiple_of(9) {
        spec.with_slo(SimDuration::from_millis(1))
    } else {
        spec
    }
}

/// Heap growth from the 10% mark to the resolved end of a run.
struct Growth {
    requests: u64,
    bytes: isize,
}

impl Growth {
    fn per_request(&self) -> f64 {
        self.bytes as f64 / (self.requests - self.requests / 10) as f64
    }

    fn check(&self, what: &str, keep_log: bool) {
        eprintln!(
            "{what} keep_log={keep_log}: {} requests, heap {:+} B after the 10% mark \
             ({:.1} B/request)",
            self.requests,
            self.bytes,
            self.per_request()
        );
        if keep_log {
            assert!(
                self.per_request() >= KEPT_BYTES_PER_REQ as f64,
                "{what}: the kept log should grow by >= {KEPT_BYTES_PER_REQ} B/request"
            );
        } else {
            assert!(
                self.bytes < BOUNDED_GROWTH,
                "{what}: state must stay bounded without the log, grew {} B",
                self.bytes
            );
        }
    }
}

/// Scheduled arrival of request `i`: 5 s periods of a 2 s burst at
/// 1000 requests per second, which overloads both `tm` and `da` on two
/// workers per module (PARD drops inside the pipeline and cancels DAG
/// siblings), then 3 s at ~167 per second, in which the queues drain.
/// Under a burst that never ends, PARD's highest-budget-first order
/// would hold the oldest requests queued for good, and state would
/// grow with the queue however requests are retired.
fn scheduled_arrival(i: u64) -> SimTime {
    let (period, k) = (i / 2_500, i % 2_500);
    let offset_ms = if k < 2_000 {
        k
    } else {
        2_000 + (k - 2_000) * 6
    };
    SimTime::from_millis(period * 5_000 + offset_ms)
}

fn sim_growth(app: AppKind, keep_log: bool, n: u64) -> Growth {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let modules = app.pipeline().modules.len();
    let engine = EngineBuilder::for_app(app)
        .keep_request_log(keep_log)
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(5)
                .with_fixed_workers(vec![2; modules])
                .with_pard(PardConfig::default().with_mc_draws(200)),
        ))
        .expect("sim engine builds");
    let resolved = count_resolved(engine.as_ref());
    let mut mark = 0;
    for i in 0..n {
        if i == n / 10 {
            mark = held();
        }
        engine.submit(request(i).with_at(scheduled_arrival(i)));
    }
    engine.advance_to(scheduled_arrival(n) + SimDuration::from_secs(30));
    assert_eq!(
        resolved.load(Ordering::Relaxed),
        n,
        "every request resolves"
    );
    let growth = Growth {
        requests: n,
        bytes: held() - mark,
    };
    engine.drain(SimDuration::from_secs(1));
    growth
}

/// `n` live requests on `tm` at 20× compression, paced on the virtual
/// clock by the simulator runs' burst-and-calm schedule stretched to
/// half the rates: threads contending for a small machine's cores make
/// the live pipeline slower than its profile, and this keeps the
/// bursts short enough for the queues to drain in the calm.
fn live_growth(keep_log: bool, n: u64) -> Growth {
    const SCALE: f64 = 20.0;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = EngineBuilder::for_app(AppKind::Tm)
        .keep_request_log(keep_log)
        .build(Backend::Live(LiveConfig::compressed(SCALE, 3, 2)))
        .expect("live engine builds");
    let resolved = count_resolved(engine.as_ref());
    let start = engine.now();
    let mut mark = 0;
    for i in 0..n {
        if i == n / 10 {
            mark = held();
        }
        let due = start + scheduled_arrival(i).saturating_since(SimTime::ZERO) * 2;
        let now = engine.now();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(
                due.saturating_since(now).as_secs_f64() / SCALE,
            ));
        }
        engine.submit(request(i));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while resolved.load(Ordering::Relaxed) < n {
        assert!(Instant::now() < deadline, "live requests did not resolve");
        std::thread::sleep(Duration::from_millis(5));
    }
    let growth = Growth {
        requests: n,
        bytes: held() - mark,
    };
    engine.drain(SimDuration::from_secs(1));
    growth
}

#[test]
fn sim_state_is_bounded_without_the_log_and_grows_with_it() {
    for app in [AppKind::Tm, AppKind::Da] {
        for keep_log in [false, true] {
            sim_growth(app, keep_log, 200_000).check(&format!("sim {}", app.name()), keep_log);
        }
    }
}

#[test]
fn live_state_is_bounded_without_the_log_and_grows_with_it() {
    for keep_log in [false, true] {
        live_growth(keep_log, 20_000).check("live tm", keep_log);
    }
}

#[test]
#[ignore = "release soak: 1M requests per app"]
fn sim_soak_one_million_requests_stays_bounded() {
    for app in [AppKind::Tm, AppKind::Da] {
        sim_growth(app, false, 1_000_000).check(&format!("sim {}", app.name()), false);
    }
}

#[test]
#[ignore = "release soak: 1M requests"]
fn live_soak_one_million_requests_stays_bounded() {
    live_growth(false, 1_000_000).check("live tm", false);
}

//! Service benchmark — the `omen-serve` daemon under concurrent clients
//! with a synthetic (instant) executor, so the measured cost is the
//! service machinery itself: framing, admission, dedupe, the result
//! cache, and progress fan-out, not the solver.
//!
//! Two canonical cases, recorded in `BENCH_serve.json`:
//!
//! - `unique-jobs` — every submission is a globally distinct request, so
//!   every job pays the full enqueue→solve→stream path and the dedupe
//!   hit rate is ~0. This is the service's base throughput.
//! - `dedupe-storm` — every client submits the *same* request, the
//!   worst-case thundering herd. After the first solve, every job must
//!   join in flight or replay from the cache; the dedupe hit rate is the
//!   fraction that never started a fresh solve, and the case regresses
//!   if the sharing machinery stops working even when throughput looks
//!   healthy.
//!
//! `--smoke` shrinks the job counts and publishes to the ledger's smoke
//! twin under `target/` instead (`records::publish`) — the CI gate uses it
//! to exercise the daemon, the protocol, and the JSON emitter on every run
//! without touching the committed baseline.

use omen_bench::records::{publish, ServeRecord};
use omen_serve::{Client, Executor, Server, ServerConfig, SweepRequest};
use std::sync::Arc;
use std::time::Instant;

/// An executor that "solves" instantly: the payload is the request's own
/// canonical text, so cache-hit bit-identity still means something.
fn instant_executor() -> Executor {
    Arc::new(|req: &SweepRequest, _observe| Ok(req.canonical_text().into_bytes()))
}

/// A valid request whose cache key is unique per `tag` (the gate-voltage
/// endpoint encodes the tag, so every tag is a physically distinct sweep).
fn request(tag: usize) -> String {
    format!(
        "material = single_band_1000\nmode = frozen\nslabs = 6\nn_energy = 5\n\
         vg_points = 2\nvg_start = 0.0\nvg_stop = {:?}\nvds = 0.1\n",
        0.001 * (tag as f64 + 1.0)
    )
}

/// Runs `clients` concurrent connections, each submitting `jobs_each`
/// requests back to back over one connection. `text_for(client, j)`
/// chooses the request, which is what distinguishes the two cases.
fn run_case(
    case: &str,
    clients: usize,
    jobs_each: usize,
    text_for: impl Fn(usize, usize) -> String + Send + Sync + 'static,
) -> ServeRecord {
    let server = Server::start_with_executor(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
        instant_executor(),
    )
    .expect("bench server starts");
    let addr = server.addr().to_string();
    let text_for = Arc::new(text_for);

    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let text_for = Arc::clone(&text_for);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("bench client connects");
                let mut latencies = Vec::with_capacity(jobs_each);
                for j in 0..jobs_each {
                    let t = Instant::now();
                    client
                        .submit_and_wait(&text_for(c, j))
                        .expect("bench job completes");
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("bench client thread"))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();

    let stats = server.stats();
    server.shutdown_and_join();

    let jobs = clients * jobs_each;
    assert_eq!(
        stats.jobs_accepted as usize, jobs,
        "{case}: every job accepted"
    );
    let hits = stats.jobs_accepted.saturating_sub(stats.solves_started);
    latencies.sort_by(f64::total_cmp);
    ServeRecord {
        case: case.into(),
        clients,
        jobs,
        jobs_per_s: jobs as f64 / wall_s,
        p50_ms: latencies[latencies.len() / 2],
        p99_ms: latencies[(latencies.len() * 99) / 100],
        dedupe_hit_rate: hits as f64 / stats.jobs_accepted as f64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (clients, jobs_each) = if smoke { (4, 8) } else { (4, 64) };
    println!(
        "omen-bench serve ({}): {clients} clients x {jobs_each} jobs, instant executor",
        if smoke { "smoke" } else { "full" },
    );

    // Every (client, job) pair maps to a globally unique request.
    let unique = run_case("unique-jobs", clients, jobs_each, move |c, j| {
        request(c * jobs_each + j)
    });
    // Every submission is the same request — the thundering herd.
    let storm = run_case("dedupe-storm", clients, jobs_each, |_, _| request(0));

    for r in [&unique, &storm] {
        println!(
            "{:12}  {:.0} jobs/s  p50 {:.3} ms  p99 {:.3} ms  dedupe {:.3}",
            r.case, r.jobs_per_s, r.p50_ms, r.p99_ms, r.dedupe_hit_rate
        );
    }
    assert!(
        unique.dedupe_hit_rate < 0.01,
        "unique jobs must never dedupe (got {})",
        unique.dedupe_hit_rate
    );
    assert!(
        storm.dedupe_hit_rate > 0.5,
        "the storm must share most solves (got {})",
        storm.dedupe_hit_rate
    );

    let records = vec![unique, storm];
    let path = publish(smoke, &records).expect("publish service records");
    println!(
        "wrote {} serve records -> {}",
        records.len(),
        path.display()
    );
}

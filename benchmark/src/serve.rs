//! `serve-mixed`: the daemon under two closed-loop clients.
//!
//! An in-process `Server::start` with the real solver behind it, two worker
//! threads, two clients over loopback that each submit their next job only
//! when the previous one is done. In the job list (see `gen::serve_jobs`)
//! every distinct spec occurs several times: its first sighting is a fresh
//! solve (and a cache write), a sighting while that solve is still running
//! joins it, every later one is a cache read. Hits and misses share the
//! admission path, the cache lock and the two cores, so a change that
//! speeds one at the other's expense shows.

use crate::harness::{self, ChildArgs};
use crate::metrics::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{self_times_ns, total, Key, Tracer};
use crate::{gen, idvg, kernels};
use omen_core::iv::frozen_field_sweep;
use omen_linalg::FlopScope;
use omen_serve::{Client, Disposition, Server, ServerConfig, StatsSnapshot, SweepRequest};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;

fn config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

struct Job {
    spec: usize,
    disposition: Disposition,
    latency_s: f64,
    payload: Vec<u8>,
}

struct Pass {
    wall_s: f64,
    flops: u64,
    jobs: Vec<Job>,
    errors: Vec<String>,
    stats: StatsSnapshot,
    ping_s: Vec<f64>,
}

/// Start the daemon and connect the clients: everything before the first job.
fn set_up() -> Result<(Server, Vec<Client>), String> {
    let server = Server::start("127.0.0.1:0", config()).map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(Client::connect(&addr).map_err(|e| e.to_string())?);
    }
    Ok((server, clients))
}

/// Seconds one set-up took; the tear-down after it is not timed.
fn timed_set_up() -> Result<f64, String> {
    let t0 = Instant::now();
    let (server, clients) = set_up()?;
    let took = t0.elapsed().as_secs_f64();
    drop(clients);
    server.shutdown_and_join();
    Ok(took)
}

/// One daemon lifetime: start, connect, drain the job list, shut down.
/// Every pass starts cold, so every pass does the same work.
fn pass(jobs: &gen::ServeJobs, tc: &mut Tracer) -> Result<Pass, String> {
    let (server, mut clients) = set_up()?;

    let mut ping_s = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        clients[0].ping().map_err(|e| e.to_string())?;
        ping_s.push(t.elapsed().as_secs_f64());
    }

    let cursor = AtomicUsize::new(0);
    let origin = tc.origin();
    let traced = tc.is_on();
    let flops = FlopScope::new();
    let root = tc.begin("serve.pass", Key::NONE);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Job>, Vec<String>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut mine = Tracer::with_origin(traced, origin);
                    let mut done = Vec::new();
                    let mut errors = Vec::new();
                    let lane = mine.begin("serve.client", Key::NONE);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&spec) = jobs.order.get(i) else {
                            break;
                        };
                        let s = mine.begin("serve.job", Key::NONE.at_e(i));
                        let t = Instant::now();
                        let outcome = client.submit_and_wait(&jobs.texts[spec]);
                        let latency_s = t.elapsed().as_secs_f64();
                        mine.end(s);
                        match outcome {
                            Ok(o) => done.push(Job {
                                spec,
                                disposition: o.disposition,
                                latency_s,
                                payload: o.payload,
                            }),
                            Err(e) => errors.push(format!("job {i} (spec {spec}): {e}")),
                        }
                    }
                    mine.end(lane);
                    (done, errors, mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    tc.end(root);
    let flops = flops.take();

    let stats = server.stats();
    drop(clients);
    server.shutdown_and_join();

    let mut out = Pass {
        wall_s,
        flops,
        jobs: Vec::new(),
        errors: Vec::new(),
        stats,
        ping_s,
    };
    for (done, errors, spans) in per_client {
        out.jobs.extend(done);
        out.errors.extend(errors);
        tc.absorb(spans);
    }
    Ok(out)
}

/// Energy points behind one fresh solve.
fn points_per_solve(text: &str) -> Result<usize, String> {
    let req = SweepRequest::parse(text).map_err(|e| e.to_string())?;
    Ok(req.vg_points * req.n_energy * req.n_k)
}

/// Every job `Ok`, every repeat byte-identical to its first answer, and
/// exactly one solve per distinct spec.
fn check_pass(out: &mut Outcome, jobs: &gen::ServeJobs, p: &Pass) {
    out.attempted += jobs.order.len() as u64;
    out.failed += (jobs.order.len() - p.jobs.len()) as u64;
    for e in &p.errors {
        out.check(false, || e.clone());
    }
    let mut first: Vec<Option<&[u8]>> = vec![None; jobs.texts.len()];
    for j in &p.jobs {
        match first[j.spec] {
            None => first[j.spec] = Some(&j.payload),
            Some(bytes) => out.check(bytes == j.payload.as_slice(), || {
                format!(
                    "spec {}: a {:?} answer differs from the first",
                    j.spec, j.disposition
                )
            }),
        }
        match omen_serve::protocol::decode_result(&j.payload) {
            Ok(r) => out.check(
                r.failed == 0 && r.points.iter().all(|p| p.2.is_finite() && p.2 > 0.0),
                || format!("spec {}: unphysical or incomplete curve", j.spec),
            ),
            Err(e) => out.check(false, || format!("spec {}: {e}", j.spec)),
        }
    }
    out.check(p.stats.solves_started == jobs.texts.len() as u64, || {
        format!(
            "{} solves started for {} distinct specs",
            p.stats.solves_started,
            jobs.texts.len()
        )
    });
    let fresh = p
        .jobs
        .iter()
        .filter(|j| j.disposition == Disposition::Fresh)
        .count();
    out.check(fresh == jobs.texts.len(), || {
        format!(
            "{fresh} fresh admissions for {} distinct specs",
            jobs.texts.len()
        )
    });
}

pub fn run_end_to_end(args: &ChildArgs) -> Result<Outcome, String> {
    let jobs = gen::serve_jobs(args.seed, args.smoke);
    let mut out = Outcome::default();
    let run = harness::measure(args, timed_set_up, || pass(&jobs, &mut Tracer::new(false)))?;
    let passes = &run.passes;

    let solved = jobs.texts.len() * points_per_solve(&jobs.texts[0])?;
    for p in passes {
        check_pass(&mut out, &jobs, p);
        out.attempted += solved as u64;
    }
    idvg::check_engines_agree(&mut out, &jobs.texts[0])?;
    harness::put_end_to_end(
        &mut out,
        &run.set_up_s,
        run.peak_rss_mb,
        &passes
            .iter()
            .map(|p| (p.wall_s, p.flops, solved))
            .collect::<Vec<_>>(),
    );
    Ok(out)
}

fn latencies_ms(passes: &[Pass], d: Disposition) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| &p.jobs)
        .filter(|j| j.disposition == d)
        .map(|j| j.latency_s * 1e3)
        .collect()
}

pub fn run_traced(args: &ChildArgs) -> Result<Outcome, String> {
    let jobs = gen::serve_jobs(args.seed, args.smoke);
    let mut out = Outcome::default();

    // Every pass with client-side spans. Three passes at least, so that
    // the fresh-solve percentiles pool three dozen samples.
    let solved = jobs.texts.len() * points_per_solve(&jobs.texts[0])?;
    let mut tc = Tracer::new(true);
    let passes = harness::passes(args, harness::PASS_SHARE * args.seconds, 3, || {
        let traced = pass(&jobs, &mut tc)?;
        check_pass(&mut out, &jobs, &traced);
        out.attempted += solved as u64;
        Ok(traced)
    })?;
    idvg::check_engines_agree(&mut out, &jobs.texts[0])?;

    let traced_s = passes
        .iter()
        .map(|p| p.wall_s)
        .fold(f64::INFINITY, f64::min);
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.jobs.len() as f64 / p.wall_s)
        .collect();
    out.put("serve.jobs_per_s", median(&rates), rates.len());
    let fresh = latencies_ms(&passes, Disposition::Fresh);
    let cached = latencies_ms(&passes, Disposition::Cached);
    let joined = latencies_ms(&passes, Disposition::Joined);
    out.put("serve.fresh_p50_ms", median(&fresh), fresh.len());
    // With 12 fresh jobs a pass and at least three passes pooled, p75 is the highest
    // percentile that keeps ten or more samples beyond it.
    out.put("serve.fresh_p75_ms", percentile(&fresh, 75.0), fresh.len());
    out.put("serve.cached_p50_ms", median(&cached), cached.len());
    out.put(
        "serve.cached_p99_ms",
        percentile(&cached, 99.0),
        cached.len(),
    );
    out.put("serve.joined_p50_ms", median(&joined), joined.len());
    let pings: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.ping_s)
        .map(|s| s * 1e6)
        .collect();
    out.put("serve.ping_p50_us", median(&pings), pings.len());

    let parse_key = harness::samples(if args.smoke { 10 } else { 200 }, || {
        let req = SweepRequest::parse(&jobs.texts[0]).map_err(|e| e.to_string())?;
        std::hint::black_box(req.cache_key());
        Ok(())
    })?;
    out.put(
        "serve.parse_key_us",
        median(&parse_key) * 1e6,
        parse_key.len(),
    );
    out.put(
        "serve.result_bytes",
        passes[0]
            .jobs
            .first()
            .map_or(0.0, |j| j.payload.len() as f64),
        1,
    );

    let last = &passes[passes.len() - 1].stats;
    let answered = (last.solves_started + last.cache_hits + last.dedupe_joins).max(1);
    out.put("serve.solves_started", last.solves_started as f64, 1);
    out.put("serve.cache_hits", last.cache_hits as f64, 1);
    out.put("serve.dedupe_joins", last.dedupe_joins as f64, 1);
    out.put(
        "serve.hit_rate",
        last.cache_hits as f64 / answered as f64,
        1,
    );
    out.put("serve.cache_evictions", last.cache_evictions as f64, 1);
    out.put("serve.busy_rejections", last.busy_rejections as f64, 1);

    // The same spec solved by a direct library call: what the daemon adds.
    let direct = harness::samples(if args.smoke { 1 } else { 5 }, || {
        let req = SweepRequest::parse(&jobs.texts[0]).map_err(|e| e.to_string())?;
        let tr = req.device_spec().map_err(|e| e.to_string())?.build();
        let engine = req.engine_kind().map_err(|e| e.to_string())?;
        std::hint::black_box(frozen_field_sweep(
            &tr,
            &req.v_gates(),
            req.vds,
            req.mu_source,
            engine,
            req.n_energy,
        ));
        Ok(())
    })?;
    out.put(
        "serve.fresh_over_direct",
        median(&fresh) / (median(&direct) * 1e3),
        direct.len(),
    );

    // A closed loop leaves a client nothing to do but wait on its job, so
    // the job spans should cover each client's lane almost entirely.
    let spans = tc.spans();
    let own = self_times_ns(spans);
    let lanes = total(spans, &own, "serve.client");
    out.put("core.replay_wall_s", traced_s, passes.len());
    harness::put_trace_validity(
        &mut out,
        1.0 - lanes.self_s / lanes.dur_s,
        spans.len(),
        tc.bookkeeping_s() / passes.iter().map(|p| p.wall_s).sum::<f64>(),
    );

    kernels::measure(&mut out, args.smoke);
    harness::write_trace(args, &tc);
    Ok(out)
}

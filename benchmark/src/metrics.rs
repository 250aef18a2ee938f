//! The metric catalogue (mirrored in `../BENCHMARK.json`; a unit test keeps
//! the two identical) and the record one workload run produces.

use crate::json::Json;

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("curve_wall_s", "s"),
    ("energy_points_per_s", "1/s"),
    ("sustained_gflops", "Gflop/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, reported with `--trace 1`.
/// A layer a workload never reaches reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // contacts (Sancho–Rubio)
    ("negf.contacts_s", "s"),
    ("negf.contacts_calls", "count"),
    ("negf.contacts_flops", "flop"),
    ("negf.contacts_gflops", "Gflop/s"),
    ("negf.contacts_retries", "count"),
    ("negf.contacts_distinct_fraction", "ratio"),
    // set-up, assembly, window, integration
    ("core.build_s", "s"),
    ("tb.assemble_s", "s"),
    ("tb.assemble_calls", "count"),
    ("core.window_s", "s"),
    ("core.window_calls", "count"),
    ("core.integrate_s", "s"),
    // engines
    ("wf.solve_s", "s"),
    ("wf.solve_flops", "flop"),
    ("wf.solve_gflops", "Gflop/s"),
    ("negf.rgf_solve_s", "s"),
    ("negf.rgf_flops", "flop"),
    ("negf.rgf_gflops", "Gflop/s"),
    ("negf.selinv_over_rgf", "ratio"),
    // dense kernels at the workloads' block sizes
    ("linalg.gemm_n32_gflops", "Gflop/s"),
    ("linalg.gemm_n90_gflops", "Gflop/s"),
    ("linalg.lu_n32_gflops", "Gflop/s"),
    ("linalg.lu_n90_gflops", "Gflop/s"),
    ("linalg.gemm_n32_t2_over_t1", "ratio"),
    ("linalg.gemm_n90_t2_over_t1", "ratio"),
    ("linalg.thread_policy_slowdown", "ratio"),
    // electrostatics and the SCF loop
    ("poisson.solve_s", "s"),
    ("poisson.solve_calls", "count"),
    ("poisson.deposit_sample_s", "s"),
    ("core.scf_iters", "count"),
    ("core.energy_points", "count"),
    ("core.points_retried", "count"),
    ("core.points_failed", "count"),
    // rank-parallel sweep
    ("core.sequential_wall_s", "s"),
    ("core.static_wall_s", "s"),
    ("core.dynamic_wall_s", "s"),
    ("core.dynamic_over_static", "ratio"),
    ("core.speedup_2r", "ratio"),
    ("core.alt_layout_dynamic_over_static", "ratio"),
    ("sched.imbalance", "ratio"),
    ("sched.chunks", "count"),
    ("sched.coordinator_units", "count"),
    ("sched.reissued", "count"),
    ("sched.stale_msgs", "count"),
    ("sched.bank_warmed", "count"),
    ("sched.bank_seeded", "count"),
    ("parsim.messages", "count"),
    ("parsim.bytes", "B"),
    ("parsim.spawn_split_s", "s"),
    ("parsim.model_over_measured", "ratio"),
    ("wf.splitsolve_wall_s", "s"),
    ("wf.splitsolve_bytes", "B"),
    ("wf.splitsolve_flops_over_thomas", "ratio"),
    // daemon
    ("serve.jobs_per_s", "1/s"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.fresh_p75_ms", "ms"),
    ("serve.cached_p50_ms", "ms"),
    ("serve.cached_p99_ms", "ms"),
    ("serve.joined_p50_ms", "ms"),
    ("serve.ping_p50_us", "us"),
    ("serve.parse_key_us", "us"),
    ("serve.result_bytes", "B"),
    ("serve.solves_started", "count"),
    ("serve.cache_hits", "count"),
    ("serve.dedupe_joins", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.busy_rejections", "count"),
    ("serve.fresh_over_direct", "ratio"),
    // validity of the table above
    ("core.replay_wall_s", "s"),
    ("core.layer_sum_over_wall", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_fraction", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: energy points, bias points and daemon jobs.
    pub attempted: u64,
    /// Failed energy points + unconverged bias points + jobs that did not
    /// end `Ok`.
    pub failed: u64,
    /// Why the run is not correct; empty means every check passed.
    pub violations: Vec<String>,
    /// `(metric, value, samples behind it)`.
    pub values: Vec<(String, f64, usize)>,
    /// Wall seconds of every end-to-end pass, in the order run.
    pub pass_wall_s: Vec<f64>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.push((name.to_string(), value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            (
                "pass_wall_s",
                Json::Arr(self.pass_wall_s.iter().map(|w| Json::Num(*w)).collect()),
            ),
            (
                "values",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(n, v, s)| {
                            (
                                n.clone(),
                                Json::obj(vec![
                                    ("value", Json::Num(*v)),
                                    ("samples", Json::Num(*s as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Outcome, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("child record lacks `{k}`"))
        };
        let mut out = Outcome {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            ..Outcome::default()
        };
        for v in j.get("violations").and_then(Json::as_arr).unwrap_or(&[]) {
            out.violations
                .push(v.as_str().unwrap_or("unreadable violation").to_string());
        }
        for w in j.get("pass_wall_s").and_then(Json::as_arr).unwrap_or(&[]) {
            out.pass_wall_s.push(w.as_f64().unwrap_or(f64::NAN));
        }
        for (name, v) in j.get("values").and_then(Json::as_obj).unwrap_or(&[]) {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let samples = v.get("samples").and_then(Json::as_f64).unwrap_or(0.0);
            out.values.push((name.clone(), value, samples as usize));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::Workload::ALL.map(crate::Workload::name));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let mut o = Outcome {
            attempted: 240,
            failed: 1,
            ..Outcome::default()
        };
        o.put("curve_wall_s", 1.2345678901234567, 3);
        o.pass_wall_s = vec![1.5, 1.2345678901234567, 1.25];
        o.check(false, || "payload differs".to_string());
        let back = Outcome::from_json(&Json::parse(&o.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.attempted, 240);
        assert_eq!(back.failed, 1);
        assert_eq!(back.violations, o.violations);
        assert_eq!(back.values, o.values);
        assert_eq!(back.pass_wall_s, o.pass_wall_s);
    }
}

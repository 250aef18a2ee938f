//! Seeded input generators. The library only ever sees what these return;
//! the seed itself never crosses into it.
//!
//! Seed 0 is the un-jittered case whose currents are committed as
//! references. Any other seed moves the gate window and the Fermi level by
//! at most 2 mV (so the energy grid shifts with them) and reshuffles the
//! daemon's job order: the work stays the same size, the numbers change.

/// SplitMix64: tiny, well mixed, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Offset in `[-amp, amp]`, rounded to 1 µV so request texts stay short;
/// exactly zero for seed 0.
fn jitter(seed: u64, stream: u64, amp: f64) -> f64 {
    if seed == 0 {
        return 0.0;
    }
    let x = (Rng::new(seed, stream).unit() * 2.0 - 1.0) * amp;
    (x * 1e6).round() / 1e6
}

const JITTER_V: f64 = 2e-3;

/// `idvg-scf-wf`: the README nanowire case, subthreshold end.
pub fn scf_wf_request(seed: u64, smoke: bool) -> String {
    let dv = jitter(seed, 1, JITTER_V);
    let dmu = jitter(seed, 2, JITTER_V);
    let (n_energy, vg_points) = if smoke { (11, 1) } else { (31, 4) };
    format!(
        "# 1 nm single-band gate-all-around nanowire nMOSFET, self-consistent Id-Vg\n\
         material   = single_band_1000\n\
         geometry   = nanowire\n\
         width      = 1.0\n\
         slabs      = 8\n\
         doping_sd  = 2e-3\n\
         mode       = scf\n\
         engine     = wf\n\
         n_energy   = {n_energy}\n\
         vds        = 0.2\n\
         mu_source  = {:?}\n\
         vg_start   = {:?}\n\
         vg_stop    = {:?}\n\
         vg_points  = {vg_points}\n",
        -3.4 + dmu,
        -0.4 + dv,
        -0.1 + dv,
    )
}

/// `idvg-frozen-sp3s-rgf`: full-band wire, long channel, frozen field.
pub fn frozen_rgf_request(seed: u64, smoke: bool) -> String {
    let dv = jitter(seed, 3, JITTER_V);
    let dmu = jitter(seed, 4, JITTER_V);
    let (slabs, n_energy) = if smoke { (6, 2) } else { (128, 3) };
    format!(
        "# 0.8 nm sp3s* silicon nanowire, long channel, frozen-field Id-Vg\n\
         material   = si_sp3s\n\
         geometry   = nanowire\n\
         width      = 0.8\n\
         slabs      = {slabs}\n\
         doping_sd  = 2e-3\n\
         mode       = frozen\n\
         engine     = rgf\n\
         n_energy   = {n_energy}\n\
         vds        = 0.2\n\
         mu_source  = {:?}\n\
         vg_start   = {:?}\n\
         vg_stop    = {:?}\n\
         vg_points  = 2\n",
        1.6 + dmu,
        -0.2 + dv,
        0.0 + dv,
    )
}

/// Inputs of `ranks2-utb-k3`: the device is fixed; the seed moves the two
/// frozen gate values and the shared energy grid.
pub struct RanksInputs {
    pub slabs: usize,
    pub n_k: usize,
    pub energies: Vec<f64>,
    pub v_gates: Vec<f64>,
}

pub fn ranks_inputs(seed: u64, smoke: bool) -> RanksInputs {
    let dv = jitter(seed, 5, JITTER_V);
    let de = jitter(seed, 6, JITTER_V);
    let (slabs, n_energy, n_bias) = if smoke { (6, 6, 1) } else { (16, 32, 2) };
    RanksInputs {
        slabs,
        n_k: 3,
        energies: omen_num::linspace(-3.75 + de, -2.95 + de, n_energy),
        v_gates: (0..n_bias).map(|i| -0.1 + 0.1 * i as f64 + dv).collect(),
    }
}

/// The `serve-mixed` traffic. `order[i]` indexes `texts`.
///
/// The list is built in rounds, one per distinct spec, and two closed-loop
/// clients draw from it in order. Each of the first [`JOIN_ROUNDS`] rounds
/// submits its spec twice in a row: both clients are free, so one submission
/// is admitted fresh and the other joins it in flight. Every later round
/// submits its spec once (a fresh solve) and then re-reads specs introduced
/// at least two rounds earlier (cache hits — the previous round's spec may
/// still be solving). The seed decides which spec is introduced when and
/// which older ones are re-read, never where the solves, reads and joins
/// fall. A plain shuffle does move them: a join idles a worker for whatever
/// is left of the solve it joins, and the wall time of one job list then
/// wanders by ±20 % from pass to pass.
pub struct ServeJobs {
    pub texts: Vec<String>,
    pub order: Vec<usize>,
}

const JOIN_ROUNDS: usize = 2;

pub fn serve_jobs(seed: u64, smoke: bool) -> ServeJobs {
    let (distinct, repeats, n_energy) = if smoke { (4, 2, 7) } else { (12, 4, 7) };
    let dv = jitter(seed, 7, JITTER_V);
    let texts = (0..distinct)
        .map(|i| {
            // 1 mV apart: distinct cache keys, near-identical cost.
            let v0 = -0.2 + 1e-3 * i as f64 + dv;
            format!(
                "material = single_band_1000\nslabs = 8\nmode = frozen\nengine = wf\n\
                 n_energy = {n_energy}\nmu_source = -3.45\nvds = 0.15\n\
                 vg_start = {:?}\nvg_stop = {:?}\nvg_points = 3\n",
                v0,
                v0 + 0.2
            )
        })
        .collect();
    let mut rng = Rng::new(seed, 8);
    let mut intro: Vec<usize> = (0..distinct).collect();
    rng.shuffle(&mut intro);
    let mut order = Vec::new();
    for (round, &spec) in intro.iter().enumerate() {
        order.push(spec);
        if round < JOIN_ROUNDS {
            order.push(spec);
        } else {
            for _ in 0..repeats {
                order.push(intro[rng.next_u64() as usize % (round - 1)]);
            }
        }
    }
    ServeJobs { texts, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bytes(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend(scf_wf_request(seed, false).into_bytes());
        out.extend(frozen_rgf_request(seed, false).into_bytes());
        let r = ranks_inputs(seed, false);
        for x in r.energies.iter().chain(&r.v_gates) {
            out.extend(x.to_bits().to_le_bytes());
        }
        let s = serve_jobs(seed, false);
        for t in &s.texts {
            out.extend(t.as_bytes());
        }
        out.extend(s.order.iter().map(|&i| i as u8));
        out
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(all_bytes(seed), all_bytes(seed), "seed {seed}");
        }
        assert_ne!(all_bytes(0), all_bytes(1));
        assert_ne!(all_bytes(1), all_bytes(2));
        assert_ne!(serve_jobs(1, false).order, serve_jobs(2, false).order);
        assert_ne!(scf_wf_request(1, false), scf_wf_request(2, false));
    }

    #[test]
    fn seed_zero_is_the_reference_case() {
        let t = scf_wf_request(0, false);
        assert!(t.contains("mu_source  = -3.4\n"), "{t}");
        assert!(t.contains("vg_start   = -0.4\n"), "{t}");
        assert!(t.contains("vg_stop    = -0.1\n"), "{t}");
    }

    #[test]
    fn jitter_stays_within_two_millivolts() {
        for seed in 1..200 {
            for stream in 1..8 {
                let j = jitter(seed, stream, JITTER_V);
                assert!(j.abs() <= JITTER_V, "seed {seed} stream {stream}: {j}");
            }
        }
    }

    #[test]
    fn every_request_parses_and_serve_keys_are_distinct() {
        use omen_serve::SweepRequest;
        for seed in [0, 3] {
            for smoke in [false, true] {
                SweepRequest::parse(&scf_wf_request(seed, smoke)).unwrap();
                SweepRequest::parse(&frozen_rgf_request(seed, smoke)).unwrap();
                let jobs = serve_jobs(seed, smoke);
                let mut keys: Vec<u128> = jobs
                    .texts
                    .iter()
                    .map(|t| SweepRequest::parse(t).unwrap().cache_key())
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(keys.len(), jobs.texts.len());
                // Every spec is submitted, and more submissions repeat a
                // spec than introduce one.
                let mut seen = vec![false; jobs.texts.len()];
                for &i in &jobs.order {
                    seen[i] = true;
                }
                assert!(seen.iter().all(|&s| s));
                assert!(jobs.order.len() > 2 * jobs.texts.len());
            }
        }
    }
}

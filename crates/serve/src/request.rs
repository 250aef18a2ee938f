//! Sweep-job requests: parsing, validation, canonicalization, cache key.
//!
//! A request travels the wire as the same dependency-free `key = value`
//! text the `omen_cli` spec files use (one pair per line, `#` comments,
//! unknown keys are errors). The server never hashes the raw text:
//! it parses into a typed [`SweepRequest`], validates every field, and
//! hashes a *canonical encoding* — fixed field order, floats reduced to
//! their IEEE-754 bit pattern. Two texts that differ only in key order,
//! comments, whitespace, or float spelling (`0.2` vs `2e-1`) therefore
//! address the same cache entry, while any physical change (one bias
//! point, one k point, a different engine or tolerance-policy version)
//! produces a different key.

use crate::hash::Fnv128;
use omen_core::{Engine, Geometry, ScfOptions, TransistorSpec};
use omen_num::{linspace, OmenError, OmenResult};
use omen_tb::Material;
use std::collections::BTreeMap;

/// How the sweep is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Non-self-consistent frozen-field transfer sweep (fast preview).
    Frozen,
    /// Full self-consistent Schrödinger–Poisson sweep.
    Scf,
}

impl Mode {
    fn token(self) -> &'static str {
        match self {
            Mode::Frozen => "frozen",
            Mode::Scf => "scf",
        }
    }
}

/// A validated, canonical bias-sweep job description.
///
/// Field meanings match the `omen_cli` spec keys one to one; see
/// [`SweepRequest::default_text`] for every key, its default, and its
/// unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Canonical material token (`single_band_<t_meV>`, `si_sp3s`, …).
    pub material: String,
    /// Geometry family token (`nanowire` | `utb` | `ribbon`).
    pub geometry: String,
    /// Cross-section size in nm (dimer count for ribbons).
    pub width: f64,
    /// Device length in principal layers.
    pub slabs: usize,
    /// Source/drain doping (e/nm³).
    pub doping_sd: f64,
    /// p-i-n junction (TFET) instead of n-i-n.
    pub pin: bool,
    /// Solve mode.
    pub mode: Mode,
    /// Transport engine token (`wf` | `rgf` | `selinv`).
    pub engine: String,
    /// Energy points per transport solve.
    pub n_energy: usize,
    /// Transverse k-points.
    pub n_k: usize,
    /// Drain bias (V).
    pub vds: f64,
    /// Source Fermi level (eV).
    pub mu_source: f64,
    /// First gate voltage of the sweep (V).
    pub vg_start: f64,
    /// Last gate voltage of the sweep (V).
    pub vg_stop: f64,
    /// Number of gate-voltage points.
    pub vg_points: usize,
}

/// Every key a request may set, in canonical (hash) order.
const KEYS: &[&str] = &[
    "material",
    "geometry",
    "width",
    "slabs",
    "doping_sd",
    "pin",
    "mode",
    "engine",
    "n_energy",
    "n_k",
    "vds",
    "mu_source",
    "vg_start",
    "vg_stop",
    "vg_points",
];

fn bad(detail: String) -> OmenError {
    OmenError::Protocol {
        context: "request",
        detail,
    }
}

/// Parses `key = value` lines with `#` comments into a map.
fn parse_pairs(text: &str) -> OmenResult<BTreeMap<String, String>> {
    let mut map = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once('=').ok_or_else(|| {
            bad(format!(
                "line {}: expected `key = value`, got `{raw}`",
                lineno + 1
            ))
        })?;
        map.insert(k.trim().to_string(), v.trim().to_string());
    }
    Ok(map)
}

impl SweepRequest {
    /// The default request: every key with its default value, in the
    /// `omen_cli` spec format. A submitted request only needs the keys
    /// it overrides.
    pub fn default_text() -> &'static str {
        "\
material   = single_band_1000   # single_band_<t_meV> | si_sp3s | si_sp3d5s | gaas_sp3s | graphene_pz
geometry   = nanowire           # nanowire | utb | ribbon
width      = 1.0                # nm (nanowire side / utb thickness); dimer count for ribbon
slabs      = 8                  # device length in principal layers
doping_sd  = 2e-3               # source/drain doping, e/nm^3
pin        = false              # true -> p-i-n junction (TFET)
mode       = frozen             # scf | frozen
engine     = wf                 # wf | rgf | selinv
n_energy   = 31                 # energy points per transport solve
n_k        = 1                  # transverse k-points (utb, mode = scf only)
vds        = 0.2                # drain bias (V)
mu_source  = -3.4               # source Fermi level (eV)
vg_start   = -0.4
vg_stop    = 0.4
vg_points  = 9
"
    }

    /// Parses and validates a request text, filling unset keys from the
    /// defaults.
    ///
    /// # Errors
    ///
    /// [`OmenError::Protocol`] on malformed lines, unknown keys,
    /// unparsable or non-finite numbers, out-of-range sizes, or unknown
    /// material/geometry/engine/mode tokens.
    pub fn parse(text: &str) -> OmenResult<SweepRequest> {
        SweepRequest::parse_with_default_mode(text, Mode::Frozen)
    }

    /// [`SweepRequest::parse`] for a front end whose unset `mode` key means
    /// something other than the wire default (`omen_cli` runs `scf`).
    ///
    /// # Errors
    ///
    /// Same contract as [`SweepRequest::parse`].
    pub fn parse_with_default_mode(text: &str, default_mode: Mode) -> OmenResult<SweepRequest> {
        let defaults = parse_pairs(SweepRequest::default_text())?;
        let user = parse_pairs(text)?;
        for k in user.keys() {
            if !KEYS.contains(&k.as_str()) {
                return Err(bad(format!("unknown key `{k}`")));
            }
        }
        let get = |k: &str| -> &str { user.get(k).unwrap_or(&defaults[k]).as_str() };
        let getf = |k: &str| -> OmenResult<f64> {
            let v: f64 = get(k)
                .parse()
                .map_err(|_| bad(format!("key `{k}`: expected a number, got `{}`", get(k))))?;
            if !v.is_finite() {
                return Err(bad(format!("key `{k}`: must be finite, got `{v}`")));
            }
            Ok(v)
        };
        let getu = |k: &str| -> OmenResult<usize> {
            get(k)
                .parse()
                .map_err(|_| bad(format!("key `{k}`: expected an integer, got `{}`", get(k))))
        };
        let getb = |k: &str| -> OmenResult<bool> {
            match get(k) {
                "true" => Ok(true),
                "false" => Ok(false),
                v => Err(bad(format!("key `{k}`: expected true|false, got `{v}`"))),
            }
        };

        let material = get("material").to_string();
        material_of(&material)?;
        let geometry = get("geometry").to_string();
        if !matches!(geometry.as_str(), "nanowire" | "utb" | "ribbon") {
            return Err(bad(format!("unknown geometry `{geometry}`")));
        }
        let mode = match user.get("mode").map(String::as_str) {
            None => default_mode,
            Some("frozen") => Mode::Frozen,
            Some("scf") => Mode::Scf,
            Some(m) => return Err(bad(format!("unknown mode `{m}`"))),
        };
        let engine = get("engine").to_string();
        engine_of(&engine)?;

        let req = SweepRequest {
            material,
            geometry,
            width: getf("width")?,
            slabs: getu("slabs")?,
            doping_sd: getf("doping_sd")?,
            pin: getb("pin")?,
            mode,
            engine,
            n_energy: getu("n_energy")?,
            n_k: getu("n_k")?,
            vds: getf("vds")?,
            mu_source: getf("mu_source")?,
            vg_start: getf("vg_start")?,
            vg_stop: getf("vg_stop")?,
            vg_points: getu("vg_points")?,
        };
        req.validate()?;
        Ok(req)
    }

    fn validate(&self) -> OmenResult<()> {
        let check = |ok: bool, detail: &str| -> OmenResult<()> {
            if ok {
                Ok(())
            } else {
                Err(bad(detail.to_string()))
            }
        };
        check(self.width > 0.0, "key `width`: must be > 0")?;
        check(
            self.slabs >= 2,
            "key `slabs`: need at least 2 principal layers",
        )?;
        check(
            self.slabs <= 4096,
            "key `slabs`: more than 4096 layers refused",
        )?;
        check(self.n_energy >= 1, "key `n_energy`: need at least 1 point")?;
        check(
            self.n_energy <= 100_000,
            "key `n_energy`: more than 1e5 points refused",
        )?;
        check(self.n_k >= 1, "key `n_k`: need at least 1 k-point")?;
        check(
            self.n_k <= 4096,
            "key `n_k`: more than 4096 k-points refused",
        )?;
        // The frozen-field driver is Γ-only by construction; dropping the
        // key would cache identical results under different addresses.
        check(
            self.n_k == 1 || self.mode == Mode::Scf,
            "key `n_k`: mode = frozen solves the Γ point only, use mode = scf for a k-average",
        )?;
        check(
            self.vg_points >= 1,
            "key `vg_points`: need at least 1 point",
        )?;
        check(
            self.vg_points <= 100_000,
            "key `vg_points`: more than 1e5 points refused",
        )?;
        Ok(())
    }

    /// The canonical encoding the cache key hashes: fixed field order,
    /// floats rendered in round-trip form. Also serves as the
    /// human-readable normal form of the job (valid request text).
    pub fn canonical_text(&self) -> String {
        format!(
            "material = {}\ngeometry = {}\nwidth = {:?}\nslabs = {}\ndoping_sd = {:?}\n\
             pin = {}\nmode = {}\nengine = {}\nn_energy = {}\nn_k = {}\nvds = {:?}\n\
             mu_source = {:?}\nvg_start = {:?}\nvg_stop = {:?}\nvg_points = {}\n",
            self.material,
            self.geometry,
            self.width,
            self.slabs,
            self.doping_sd,
            self.pin,
            self.mode.token(),
            self.engine,
            self.n_energy,
            self.n_k,
            self.vds,
            self.mu_source,
            self.vg_start,
            self.vg_stop,
            self.vg_points,
        )
    }

    /// Content-address of this job under the shipped tolerance policy:
    /// identical requests (after canonicalization) get identical keys;
    /// any physical field change or a tolerance-policy schema bump
    /// changes the key.
    pub fn cache_key(&self) -> u128 {
        self.cache_key_under_policy(omen_num::tolerance::POLICY_SCHEMA)
    }

    /// [`SweepRequest::cache_key`] under an explicit tolerance-policy
    /// version tag (exposed so tests can prove a policy bump invalidates
    /// the cache).
    pub fn cache_key_under_policy(&self, policy_version: &str) -> u128 {
        let mut h = Fnv128::new();
        h.write_str("omen-serve-cache-key-v1");
        h.write_str(policy_version);
        h.write_str(&self.material);
        h.write_str(&self.geometry);
        h.write(&self.width.to_bits().to_le_bytes());
        h.write(&(self.slabs as u64).to_le_bytes());
        h.write(&self.doping_sd.to_bits().to_le_bytes());
        h.write(&[u8::from(self.pin)]);
        h.write_str(self.mode.token());
        h.write_str(&self.engine);
        h.write(&(self.n_energy as u64).to_le_bytes());
        h.write(&(self.n_k as u64).to_le_bytes());
        h.write(&self.vds.to_bits().to_le_bytes());
        h.write(&self.mu_source.to_bits().to_le_bytes());
        h.write(&self.vg_start.to_bits().to_le_bytes());
        h.write(&self.vg_stop.to_bits().to_le_bytes());
        h.write(&(self.vg_points as u64).to_le_bytes());
        h.finish()
    }

    /// The transport engine this request selects.
    ///
    /// # Errors
    ///
    /// [`OmenError::Protocol`] if the stored token is not a known engine
    /// (cannot happen for a request that came out of [`SweepRequest::parse`]).
    pub fn engine_kind(&self) -> OmenResult<Engine> {
        engine_of(&self.engine)
    }

    /// The SCF controls this request selects (`mode = scf` jobs): engine,
    /// energy and momentum grids from the request, the rest defaults.
    ///
    /// # Errors
    ///
    /// Same contract as [`SweepRequest::engine_kind`].
    pub fn scf_options(&self) -> OmenResult<ScfOptions> {
        Ok(ScfOptions {
            engine: self.engine_kind()?,
            n_energy: self.n_energy,
            n_k: self.n_k,
            ..ScfOptions::default()
        })
    }

    /// Builds the device spec this request describes.
    ///
    /// # Errors
    ///
    /// [`OmenError::Protocol`] if the stored material token is invalid
    /// (cannot happen for a parsed request).
    pub fn device_spec(&self) -> OmenResult<TransistorSpec> {
        let material = material_of(&self.material)?;
        let mut spec = TransistorSpec::si_nanowire_nmos(material, self.width.max(0.5), self.slabs);
        spec.geometry = match self.geometry.as_str() {
            "utb" => Geometry::Utb {
                cells: 1,
                h: self.width,
            },
            "ribbon" => Geometry::Ribbon {
                n_dimer: self.width as usize,
            },
            _ => Geometry::Nanowire {
                w: self.width,
                h: self.width,
            },
        };
        spec.material = material;
        spec.doping_sd = self.doping_sd;
        spec.pin_junction = self.pin;
        Ok(spec)
    }

    /// The gate-voltage grid of the sweep.
    pub fn v_gates(&self) -> Vec<f64> {
        linspace(self.vg_start, self.vg_stop, self.vg_points)
    }
}

fn material_of(token: &str) -> OmenResult<Material> {
    match token {
        "si_sp3s" => Ok(Material::SiSp3s),
        "si_sp3d5s" => Ok(Material::SiSp3d5s),
        "gaas_sp3s" => Ok(Material::GaAsSp3s),
        "graphene_pz" => Ok(Material::GraphenePz),
        m if m.starts_with("single_band_") => {
            let t: i32 = m["single_band_".len()..]
                .parse()
                .map_err(|_| bad(format!("bad single_band hopping in `{m}`")))?;
            Ok(Material::SingleBand { t_mev: t })
        }
        m => Err(bad(format!("unknown material `{m}`"))),
    }
}

fn engine_of(token: &str) -> OmenResult<Engine> {
    match token {
        "wf" => Ok(Engine::WfThomas),
        "rgf" => Ok(Engine::Rgf),
        "selinv" => Ok(Engine::SelInv),
        e => Err(bad(format!("unknown engine `{e}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> &'static str {
        "material = single_band_1000\nmode = frozen\nslabs = 6\nn_energy = 15\n\
         vg_points = 3\nvg_start = -0.1\nvg_stop = 0.1\nmu_source = -3.4\ndoping_sd = 0.0\n"
    }

    #[test]
    fn defaults_parse_and_round_trip_canonically() {
        let d = SweepRequest::parse("").expect("empty request takes all defaults");
        let again = SweepRequest::parse(&d.canonical_text()).expect("canonical text re-parses");
        assert_eq!(d, again);
        assert_eq!(d.cache_key(), again.cache_key());
    }

    #[test]
    fn reordered_and_reformatted_fields_hash_identically() {
        let a = SweepRequest::parse("vds = 0.2\nslabs = 6\nn_energy = 15\n").expect("parses");
        let b = SweepRequest::parse("n_energy  =   15  # comment\n\nslabs=6\nvds = 2e-1\n")
            .expect("parses");
        assert_eq!(a, b);
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn every_physical_field_change_changes_the_key() {
        let base = SweepRequest::parse(small()).expect("parses");
        let key = base.cache_key();
        // One more bias point.
        let mut r = base.clone();
        r.vg_points += 1;
        assert_ne!(r.cache_key(), key, "vg_points");
        // A shifted bias endpoint.
        let mut r = base.clone();
        r.vg_stop += 0.05;
        assert_ne!(r.cache_key(), key, "vg_stop");
        // One more k point.
        let mut r = base.clone();
        r.n_k += 1;
        assert_ne!(r.cache_key(), key, "n_k");
        // A different engine.
        let mut r = base.clone();
        r.engine = "rgf".to_string();
        assert_ne!(r.cache_key(), key, "engine");
        // A different structure.
        let mut r = base.clone();
        r.slabs += 1;
        assert_ne!(r.cache_key(), key, "slabs");
        // A tolerance-policy version bump.
        assert_ne!(
            base.cache_key_under_policy("omen-tolerances-v999"),
            key,
            "policy version"
        );
    }

    #[test]
    fn unknown_key_and_bad_values_yield_typed_protocol_errors() {
        for text in [
            "materiall = si_sp3s\n",
            "width = not_a_number\n",
            "vds = inf\n",
            "vds = nan\n",
            "pin = yes\n",
            "engine = magic\n",
            "mode = warp\n",
            "material = plutonium\n",
            "geometry = klein_bottle\n",
            "vg_points = 0\n",
            "slabs = 1\n",
            "n_energy = 0\n",
            "n_k = 0\n",
            "mode = frozen\nn_k = 2\n",
            "n_k = 2\n",
            "width = -1.0\n",
            "no equals sign",
        ] {
            match SweepRequest::parse(text) {
                Err(OmenError::Protocol { context, .. }) => assert_eq!(context, "request"),
                other => panic!("`{text}` should be a Protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn default_mode_applies_only_when_the_key_is_unset() {
        let scf = SweepRequest::parse_with_default_mode("n_k = 2\n", Mode::Scf).expect("parses");
        assert_eq!(scf.mode, Mode::Scf);
        assert_eq!(scf.scf_options().expect("options").n_k, 2);
        let frozen = SweepRequest::parse_with_default_mode("mode = frozen\n", Mode::Scf);
        assert_eq!(frozen.expect("parses").mode, Mode::Frozen);
        assert_eq!(SweepRequest::parse("").expect("parses").mode, Mode::Frozen);
    }

    #[test]
    fn device_spec_and_grid_are_buildable() {
        let r = SweepRequest::parse(small()).expect("parses");
        let spec = r.device_spec().expect("buildable");
        assert_eq!(spec.num_slabs, 6);
        assert_eq!(r.v_gates().len(), 3);
        assert!(matches!(r.engine_kind().expect("engine"), Engine::WfThomas));
    }
}

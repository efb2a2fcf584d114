//! Seeded input generation.
//!
//! Everything a workload feeds the product is made here from `--seed` and
//! written under `benchmark/out/inputs/<seed>/`; the workloads read the
//! files back and hand the product only their contents. The seed drives
//! the rate-constant perturbations, the measurement noise, the arrival
//! times, the model/tenant/job-kind draws and the cold-source trickle.
//! Sizes never depend on the seed: two seeds give two instances of the same
//! workload, not two workloads.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rms_workload::FrontierSpec;

use crate::json::{obj, Value};

/// splitmix64: small, seedable, and good enough for workload draws.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, purpose)`, so adding a draw to one
    /// purpose never shifts another's.
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
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

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// The directory one seed's inputs live in.
pub struct InputDir(PathBuf);

impl InputDir {
    pub fn create(out_dir: &Path, seed: u64) -> io::Result<InputDir> {
        let dir = out_dir.join("inputs").join(seed.to_string());
        fs::create_dir_all(&dir)?;
        Ok(InputDir(dir))
    }

    /// Write a generated input and return where it went.
    pub fn write(&self, name: &str, contents: &str) -> io::Result<PathBuf> {
        let path = self.0.join(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(&path, contents)?;
        Ok(path)
    }
}

/// Multiply the value of every `rate NAME = <number>;` line by a seeded
/// factor in `[1 − spread, 1 + spread]`: a source no earlier run has
/// compiled, with the same network.
fn perturb_rates(source: &str, rng: &mut Rng, spread: f64) -> String {
    source
        .lines()
        .map(|line| {
            let trimmed = line.trim_start();
            let Some(rest) = trimmed.strip_prefix("rate ") else {
                return line.to_string();
            };
            let (Some(eq), Some(semi)) = (rest.find('='), rest.find(';')) else {
                return line.to_string();
            };
            match rest[eq + 1..semi].trim().parse::<f64>() {
                // Derived rates (`K_deep = K_exchange / 2`) keep their formula.
                Err(_) => line.to_string(),
                Ok(value) => format!(
                    "rate {}= {};{}",
                    &rest[..eq],
                    value * rng.uniform(1.0 - spread, 1.0 + spread),
                    &rest[semi + 1..]
                ),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Species the frontier workload closes to; `FrontierSpec` rounds it up to
/// the next `3k² + 6k`.
pub const FRONTIER_TARGET_SPECIES: usize = 20_000;

/// The frontier model's RDL text. Rates move by ±1 %: enough for a new
/// content address, too little to change the solver's step sequence much.
pub fn frontier_source(seed: u64) -> String {
    let spec = FrontierSpec::for_species(FRONTIER_TARGET_SPECIES);
    perturb_rates(
        &spec.rdl_source(),
        &mut Rng::stream(seed, "frontier-rates"),
        0.01,
    )
}

/// `models/vulcanization.rdl` as the repository ships it.
const VULCANIZATION_RDL: &str = include_str!("../../models/vulcanization.rdl");

/// The vulcanization model with polysulfide chains `2..=max_chain` and its
/// generation limits scaled to match; rates as declared.
pub fn vulcanization_source(max_chain: usize) -> String {
    let replaced = [
        ("for n in 2..5", format!("for n in 2..{max_chain}")),
        (
            "forbid chain S > 5",
            format!("forbid chain S > {max_chain}"),
        ),
        (
            "limit atoms 24",
            format!("limit atoms {}", 24 * max_chain / 5 + 8),
        ),
        (
            "limit species 400",
            format!("limit species {}", 400 * max_chain / 5),
        ),
    ];
    let mut source = VULCANIZATION_RDL.to_string();
    for (from, to) in replaced {
        assert!(
            source.contains(from),
            "models/vulcanization.rdl no longer contains '{from}'"
        );
        source = source.replace(from, &to);
    }
    source
}

/// The same model with one rate constant nudged: a source the server has
/// never seen, so a new fingerprint and a cold compile.
pub fn cold_variant(source: &str, serial: usize, rng: &mut Rng) -> String {
    let mut replaced = false;
    let lines: Vec<String> = source
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("rate K_delta ") {
                replaced = true;
                format!(
                    "rate K_delta = {};",
                    0.3 + 1e-4 * (serial as f64 + rng.unit())
                )
            } else {
                line.to_string()
            }
        })
        .collect();
    assert!(replaced, "the model no longer declares K_delta");
    lines.join("\n")
}

/// The two-species decay model with a closed-form solution.
pub const CSSC_SOURCE: &str = "rate K_sc = 2;\n\
molecule DiS = \"CSSC\" init 1.0;\n\
rule scission {\n    site bond S ~ S order single;\n    action disconnect;\n    rate K_sc;\n}\n";

/// `count` rate vectors within ±`spread` of `center`, as the estimator's
/// inner loop sees them.
pub fn rate_vectors(seed: u64, center: &[f64], count: usize, spread: f64) -> Vec<Vec<f64>> {
    let mut rng = Rng::stream(seed, "rate-vectors");
    (0..count)
        .map(|_| {
            center
                .iter()
                .map(|k| k * rng.uniform(1.0 - spread, 1.0 + spread))
                .collect()
        })
        .collect()
}

pub fn vectors_to_text(vectors: &[Vec<f64>]) -> String {
    vectors
        .iter()
        .map(|v| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

pub fn vectors_from_text(text: &str) -> Result<Vec<Vec<f64>>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.split_whitespace()
                .map(|w| w.parse::<f64>().map_err(|e| format!("'{w}': {e}")))
                .collect()
        })
        .collect()
}

/// Positive, O(1) concentrations to evaluate a right-hand side at.
pub fn states(seed: u64, purpose: &str, dim: usize, count: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::stream(seed, purpose);
    (0..count)
        .map(|_| (0..dim).map(|_| rng.uniform(0.05, 1.5)).collect())
        .collect()
}

/// `values · (1 + sigma · N(0,1))`, the measurement noise on synthesized
/// experiment records.
pub fn add_noise(values: &[f64], sigma: f64, rng: &mut Rng) -> Vec<f64> {
    values
        .iter()
        .map(|v| v * (1.0 + sigma * rng.normal()))
        .collect()
}

/// One job of the serving workload, before it becomes a request line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDraw {
    /// Seconds after the phase starts at which the job is due (open loop);
    /// 0 in the closed loop, where the previous reply releases it.
    pub due_s: f64,
    /// Index into the hot models, or `None` for the decay model.
    pub model: Option<usize>,
    /// Whether this job's source is a never-seen variant of `model`.
    pub cold: bool,
    pub estimate: bool,
    pub tenant: usize,
    /// Which of the output-time grids the job asks for.
    pub grid: usize,
}

/// Shape of the serving mix. The shares are exact in every phase — a
/// phase of `n` jobs holds `n ×` each share, rounded by largest remainder —
/// so two windows of one run, or two seeds, carry the same work; the seed
/// decides the order, the arrival times and which job gets which tenant,
/// grid and kind.
pub struct MixSpec {
    /// Popularity weight of each hot model, most popular first.
    pub model_weights: Vec<f64>,
    /// Share of jobs that go to the decay model.
    pub decay_share: f64,
    /// Share of each hot model's jobs that are `estimate` jobs.
    pub estimate_share: f64,
    pub tenants: usize,
    pub grids: usize,
    /// Every `cold_every`-th job carries a never-seen source…
    pub cold_every: usize,
    /// …which is a variant of this hot model.
    pub cold_model: usize,
}

/// Split `count` into parts proportional to `weights` (largest remainder).
fn apportion(count: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| count as f64 * w / total).collect();
    let mut parts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = count - parts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        parts[i] += 1;
    }
    parts
}

/// `count` jobs arriving as a Poisson process of `rate_per_s` (or all due
/// at once when the rate is `None`: the closed loop paces itself).
pub fn job_draws(
    seed: u64,
    phase: &str,
    spec: &MixSpec,
    count: usize,
    rate_per_s: Option<f64>,
) -> Vec<JobDraw> {
    let mut rng = Rng::stream(seed, &format!("jobs-{phase}"));
    // The exact composition, in a fixed order…
    let mut weights = vec![spec.decay_share];
    let hot_total: f64 = spec.model_weights.iter().sum();
    weights.extend(
        spec.model_weights
            .iter()
            .map(|w| (1.0 - spec.decay_share) * w / hot_total),
    );
    let mut jobs = Vec::with_capacity(count);
    for (slot, &n) in apportion(count, &weights).iter().enumerate() {
        let model = slot.checked_sub(1);
        let estimates = match model {
            None => 0,
            Some(_) => (n as f64 * spec.estimate_share).round() as usize,
        };
        for i in 0..n {
            jobs.push(JobDraw {
                due_s: 0.0,
                model,
                cold: false,
                estimate: i < estimates,
                tenant: jobs.len() % spec.tenants,
                grid: i % spec.grids,
            });
        }
    }
    // …then shuffled (Fisher–Yates), given arrival times, and every
    // `cold_every`-th position turned into a cold job.
    for i in (1..jobs.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    let mut due_s = 0.0;
    for (i, job) in jobs.iter_mut().enumerate() {
        if let Some(rate) = rate_per_s {
            due_s += rng.exponential(1.0 / rate);
        }
        job.due_s = due_s;
        if (i + 1) % spec.cold_every == 0 {
            job.cold = true;
            job.model = Some(spec.cold_model);
        }
    }
    jobs
}

/// A `simulate` request line.
pub fn simulate_line(
    id: &str,
    tenant: &str,
    source: &str,
    observe: &[&str],
    times: &[f64],
) -> String {
    obj([
        ("id", id.into()),
        ("tenant", tenant.into()),
        ("kind", "simulate".into()),
        ("source", source.into()),
        (
            "observe",
            Value::Arr(observe.iter().map(|&s| s.into()).collect()),
        ),
        ("times", times.into()),
    ])
    .to_json()
}

/// An `estimate` request line over inline experiment files
/// `(label, times, values)`.
pub fn estimate_line(
    id: &str,
    tenant: &str,
    source: &str,
    observe: &[&str],
    files: &[(String, Vec<f64>, Vec<f64>)],
    ranks: usize,
) -> String {
    obj([
        ("id", id.into()),
        ("tenant", tenant.into()),
        ("kind", "estimate".into()),
        ("source", source.into()),
        (
            "observe",
            Value::Arr(observe.iter().map(|&s| s.into()).collect()),
        ),
        ("workers", ranks.into()),
        (
            "files",
            Value::Arr(
                files
                    .iter()
                    .map(|(label, times, values)| {
                        obj([
                            ("label", label.as_str().into()),
                            ("times", times.as_slice().into()),
                            ("values", values.as_slice().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_purposes() {
        let draw = |seed, purpose| Rng::stream(seed, purpose).next_u64();
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
    }

    #[test]
    fn distributions_have_the_right_moments() {
        let mut rng = Rng::stream(1, "moments");
        let n = 200_000;
        let mean_exp: f64 = (0..n).map(|_| rng.exponential(0.25)).sum::<f64>() / n as f64;
        assert!((mean_exp - 0.25).abs() < 0.005, "{mean_exp}");
        let normals: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = normals.iter().sum::<f64>() / n as f64;
        let var = normals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(
            mean.abs() < 0.01 && (var - 1.0).abs() < 0.02,
            "{mean} {var}"
        );
    }

    #[test]
    fn perturbed_sources_differ_by_seed_but_keep_their_structure() {
        let a = frontier_source(1);
        let b = frontier_source(2);
        assert_ne!(a, b);
        assert_eq!(a, frontier_source(1));
        assert_eq!(a.lines().count(), b.lines().count());
        assert!(a.contains("molecule SChain"));
    }

    #[test]
    fn derived_rates_keep_their_formula() {
        let out = perturb_rates(
            "rate A = 2;\nrate B = A / 2;  # half\nrule x {}",
            &mut Rng::stream(3, "t"),
            0.1,
        );
        assert!(out.contains("rate B = A / 2;  # half"));
        assert!(!out.contains("rate A = 2;"));
        assert!(out.ends_with("rule x {}"));
    }

    #[test]
    fn vulcanization_source_scales_every_limit() {
        let s = vulcanization_source(16);
        assert!(s.contains("for n in 2..16"));
        assert!(s.contains("forbid chain S > 16"));
        assert!(s.contains("limit atoms 84"));
        assert!(s.contains("limit species 1280"));
        let cold = cold_variant(&s, 3, &mut Rng::stream(1, "cold"));
        assert_ne!(cold, s);
        assert_eq!(cold.lines().count(), s.lines().count());
    }

    #[test]
    fn rate_vectors_round_trip_through_text_exactly() {
        let v = rate_vectors(5, &[2.0, 0.25, 1.4], 4, 0.2);
        assert_eq!(v.len(), 4);
        for row in &v {
            for (x, c) in row.iter().zip([2.0, 0.25, 1.4]) {
                assert!((x / c - 1.0).abs() <= 0.2);
            }
        }
        assert_eq!(vectors_from_text(&vectors_to_text(&v)).unwrap(), v);
    }

    #[test]
    fn job_draws_hold_the_exact_mix_in_a_seeded_order() {
        let spec = MixSpec {
            model_weights: vec![1.0, 0.5],
            decay_share: 0.1,
            estimate_share: 0.25,
            tenants: 3,
            grids: 2,
            cold_every: 50,
            cold_model: 1,
        };
        let jobs = job_draws(9, "mid", &spec, 300, Some(100.0));
        assert_eq!(jobs, job_draws(9, "mid", &spec, 300, Some(100.0)));
        let other = job_draws(10, "mid", &spec, 300, Some(100.0));
        assert_ne!(jobs, other);
        assert!(jobs.windows(2).all(|w| w[0].due_s < w[1].due_s));
        let span = jobs.last().unwrap().due_s;
        assert!((span - 3.0).abs() < 0.6, "{span}");
        // Same composition under both seeds, cold jobs aside.
        for set in [&jobs, &other] {
            let cold: Vec<&JobDraw> = set.iter().filter(|j| j.cold).collect();
            assert_eq!(cold.len(), 6);
            assert!(cold.iter().all(|j| j.model == Some(1)));
            let hot = |m| set.iter().filter(|j| !j.cold && j.model == m).count() as i64;
            assert!((hot(None) - 30).abs() <= 6);
            assert!((hot(Some(0)) - 180).abs() <= 6);
            assert!(set.iter().all(|j| j.tenant < 3 && j.grid < 2));
            assert!(set.iter().all(|j| j.model.is_some() || !j.estimate));
        }
        let estimates = jobs.iter().filter(|j| j.estimate).count();
        assert!((62..=70).contains(&estimates), "{estimates}");
        let closed = job_draws(9, "closed", &spec, 10, None);
        assert!(closed.iter().all(|j| j.due_s == 0.0));
        assert_eq!(apportion(10, &[1.0, 1.0, 1.0]).iter().sum::<usize>(), 10);
        assert_eq!(
            apportion(135, &[1.0, 0.5, 1.0 / 3.0, 0.25, 0.2, 1.0 / 6.0]),
            [55, 28, 18, 14, 11, 9]
        );
    }

    #[test]
    fn request_lines_are_valid_json_the_server_accepts() {
        let line = simulate_line("j1", "t0", CSSC_SOURCE, &["DiS"], &[0.5, 1.0]);
        let req = rms_serve::JobRequest::parse(&line).unwrap();
        assert_eq!(req.id, "j1");
        assert_eq!(req.source, CSSC_SOURCE);
        let files = vec![("a".to_string(), vec![0.5, 1.0], vec![0.4, 0.1])];
        let line = estimate_line("e1", "t1", CSSC_SOURCE, &["DiS"], &files, 2);
        let req = rms_serve::JobRequest::parse(&line).unwrap();
        assert_eq!(req.tenant, "t1");
        assert!(matches!(
            req.kind,
            rms_serve::JobKind::Estimate { workers: 2, .. }
        ));
    }
}

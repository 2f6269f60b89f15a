//! Seeded input generation. Every input a workload feeds the program
//! is a pure function of the workload seed, so one seed always yields
//! the same request stream, perturbations and width candidates.

use ppdl_core::predict::{kind_tag, PredictRequest};
use ppdl_core::{Perturbation, PerturbationKind};

/// Seed of the fixed reference samples that accuracy is measured on.
/// It does not depend on the workload seed, so an accuracy figure moves
/// only when the program's arithmetic does.
pub const REFERENCE_SEED: u64 = 0x5eed_0fac;

/// SplitMix64: small, fast and fully specified, so the inputs do not
/// depend on any library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an independent `stream` of it.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A perturbation seed small enough to cross JSON as an exact
    /// integer.
    pub fn small_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_007
    }

    /// A §IV-D perturbation: γ in 0.05–0.30, any of the three kinds.
    pub fn perturbation(&mut self) -> Perturbation {
        let gamma = self.range(0.05, 0.30);
        let kind = match self.below(3) {
            0 => PerturbationKind::NodeVoltages,
            1 => PerturbationKind::CurrentWorkloads,
            _ => PerturbationKind::Both,
        };
        Perturbation::new(gamma, kind, self.small_seed())
            .expect("gamma drawn inside (0, 1) is a valid perturbation")
    }
}

/// What one ECO request asks.
#[derive(Debug, Clone)]
pub enum EcoPayload {
    /// A §IV-D perturbation of the base design.
    Perturb(Perturbation),
    /// Explicit `(load index, amps)` current overrides.
    Loads(Vec<(usize, f64)>),
}

impl PartialEq for EcoPayload {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (EcoPayload::Perturb(a), EcoPayload::Perturb(b)) => key(a) == key(b),
            (EcoPayload::Loads(a), EcoPayload::Loads(b)) => a == b,
            _ => false,
        }
    }
}

/// The identity of a perturbation: γ, kind and seed.
#[must_use]
pub fn key(p: &Perturbation) -> (u64, PerturbationKind, u64) {
    (p.gamma().to_bits(), p.kind(), p.seed())
}

impl EcoPayload {
    /// The wire fields after `"id"`, as a JSON fragment.
    #[must_use]
    pub fn wire_fields(&self) -> String {
        match self {
            EcoPayload::Perturb(p) => format!(
                "\"gamma\":{},\"kind\":\"{}\",\"seed\":{}",
                p.gamma(),
                kind_tag(p.kind()),
                p.seed()
            ),
            EcoPayload::Loads(loads) => {
                let pairs: Vec<String> = loads.iter().map(|(i, a)| format!("[{i},{a}]")).collect();
                format!("\"loads\":[{}]", pairs.join(","))
            }
        }
    }

    /// The same question as an in-process request.
    #[must_use]
    pub fn request(&self, id: &str) -> PredictRequest {
        match self {
            EcoPayload::Perturb(p) => PredictRequest::new(id).with_perturbation(*p),
            EcoPayload::Loads(loads) => loads.iter().fold(PredictRequest::new(id), |r, &(i, a)| {
                r.with_load_override(i, a)
            }),
        }
    }
}

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoRequest {
    /// Request id, unique within the run.
    pub id: String,
    /// The question.
    pub payload: EcoPayload,
    /// Index (in the same client's stream) of the request whose payload
    /// this one repeats exactly.
    pub repeat_of: Option<usize>,
}

impl EcoRequest {
    /// The NDJSON request line, followed by a flush command, so the
    /// client waits for exactly one reply.
    #[must_use]
    pub fn wire(&self) -> String {
        format!(
            "{{\"id\":\"{}\",{}}}\n{{\"cmd\":\"flush\"}}\n",
            self.id,
            self.payload.wire_fields()
        )
    }
}

/// How far back a repeat may reach in its own client's stream. The
/// service cache holds 1024 answers; with two clients at most twice
/// this many payloads are inserted between a request and its repeat,
/// so every repeat is still cached.
const REPEAT_WINDOW: usize = 256;

/// One client's ECO request stream: about 75% perturbations, 15% load
/// overrides and 10% exact repeats of an earlier payload of the same
/// client. Unbounded; the history backs repeats and later checks.
#[derive(Debug, Clone)]
pub struct EcoStream {
    rng: Rng,
    client: usize,
    prefix: &'static str,
    base_loads: Vec<f64>,
    history: Vec<EcoRequest>,
}

impl EcoStream {
    /// Client `client`'s stream for `seed` over a design whose
    /// calibrated load currents are `base_loads`.
    #[must_use]
    pub fn new(seed: u64, client: usize, prefix: &'static str, base_loads: &[f64]) -> Self {
        Self {
            rng: Rng::new(seed, 100 + client as u64),
            client,
            prefix,
            base_loads: base_loads.to_vec(),
            history: Vec::new(),
        }
    }

    /// The next request (also kept in [`history`](Self::history)).
    pub fn next_request(&mut self) -> &EcoRequest {
        let index = self.history.len();
        let draw = self.rng.unit();
        let (payload, repeat_of) = if draw < 0.10 && index > 0 {
            let back = 1 + self.rng.below(index.min(REPEAT_WINDOW));
            let of = index - back;
            (self.history[of].payload.clone(), Some(of))
        } else if draw < 0.25 && !self.base_loads.is_empty() {
            let n = 1 + self.rng.below(4);
            let mut loads: Vec<(usize, f64)> = (0..n)
                .map(|_| {
                    let i = self.rng.below(self.base_loads.len());
                    (i, self.base_loads[i] * self.rng.range(0.7, 1.3))
                })
                .collect();
            loads.sort_by_key(|&(i, _)| i);
            loads.dedup_by_key(|&mut (i, _)| i);
            (EcoPayload::Loads(loads), None)
        } else {
            (EcoPayload::Perturb(self.rng.perturbation()), None)
        };
        self.history.push(EcoRequest {
            id: format!("{}{}-{index}", self.prefix, self.client),
            payload,
            repeat_of,
        });
        &self.history[index]
    }

    /// Every request generated so far, in order.
    #[must_use]
    pub fn history(&self) -> &[EcoRequest] {
        &self.history
    }
}

/// `n` fixed reference ECO requests (no repeats), independent of the
/// workload seed: the sample the reply-vs-MNA accuracy is taken over.
#[must_use]
pub fn eco_reference(n: usize, base_loads: &[f64]) -> Vec<EcoRequest> {
    let mut stream = EcoStream::new(REFERENCE_SEED, 0, "ref", base_loads);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let r = stream.next_request().clone();
        if r.repeat_of.is_none() {
            out.push(r);
        }
    }
    out
}

/// `n` perturbations drawn from `seed`'s stream `stream`.
#[must_use]
pub fn perturbations(seed: u64, stream: u64, n: usize) -> Vec<Perturbation> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| rng.perturbation()).collect()
}

/// `n` synthesis-oracle width candidates: the golden widths with one
/// template region stepped one ladder level (`ratio`) up or down.
#[must_use]
pub fn width_steps(
    seed: u64,
    golden: &[f64],
    regions: &[Vec<usize>],
    ratio: f64,
    n: usize,
) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 7);
    (0..n)
        .map(|_| {
            let region = &regions[rng.below(regions.len())];
            let factor = if rng.below(2) == 0 {
                ratio
            } else {
                1.0 / ratio
            };
            let mut widths = golden.to_vec();
            for &strap in region {
                widths[strap] *= factor;
            }
            widths
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads() -> Vec<f64> {
        (0..40)
            .map(|i| 1e-3 * (1.0 + f64::from(i) / 40.0))
            .collect()
    }

    fn wire_stream(seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut s = EcoStream::new(seed, client, "c", &loads());
        (0..n).map(|_| s.next_request().wire()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_request_stream() {
        assert_eq!(wire_stream(11, 0, 500), wire_stream(11, 0, 500));
        assert_eq!(wire_stream(11, 1, 500), wire_stream(11, 1, 500));
        let keys = |v: Vec<Perturbation>| v.iter().map(key).collect::<Vec<_>>();
        assert_eq!(
            keys(perturbations(11, 3, 20)),
            keys(perturbations(11, 3, 20))
        );
        let regions = vec![vec![0, 1], vec![2, 3]];
        let golden = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            width_steps(11, &golden, &regions, 1.2, 30),
            width_steps(11, &golden, &regions, 1.2, 30)
        );
    }

    #[test]
    fn another_seed_gives_a_different_stream() {
        assert_ne!(wire_stream(11, 0, 50), wire_stream(12, 0, 50));
        assert_ne!(wire_stream(11, 0, 50), wire_stream(11, 1, 50));
        let keys = |v: Vec<Perturbation>| v.iter().map(key).collect::<Vec<_>>();
        assert_ne!(keys(perturbations(11, 3, 5)), keys(perturbations(12, 3, 5)));
        let regions = vec![vec![0, 1], vec![2, 3]];
        let golden = [1.0, 2.0, 3.0, 4.0];
        assert_ne!(
            width_steps(11, &golden, &regions, 1.2, 30),
            width_steps(12, &golden, &regions, 1.2, 30)
        );
    }

    #[test]
    fn reference_sample_ignores_the_workload_seed() {
        assert_eq!(eco_reference(12, &loads()), eco_reference(12, &loads()));
        assert!(eco_reference(12, &loads())
            .iter()
            .all(|r| r.repeat_of.is_none()));
    }

    #[test]
    fn mix_has_the_documented_shares_and_repeats_are_exact() {
        let mut s = EcoStream::new(5, 0, "c", &loads());
        for _ in 0..4000 {
            s.next_request();
        }
        let h = s.history();
        let repeats = h.iter().filter(|r| r.repeat_of.is_some()).count();
        let loads_only = h
            .iter()
            .filter(|r| r.repeat_of.is_none() && matches!(r.payload, EcoPayload::Loads(_)))
            .count();
        let share = |n: usize| n as f64 / h.len() as f64;
        assert!((share(repeats) - 0.10).abs() < 0.02, "{}", share(repeats));
        assert!(
            (share(loads_only) - 0.15).abs() < 0.02,
            "{}",
            share(loads_only)
        );
        for (i, r) in h.iter().enumerate() {
            if let Some(of) = r.repeat_of {
                assert!(of < i && i - of <= REPEAT_WINDOW);
                assert_eq!(r.payload, h[of].payload);
            }
        }
    }

    #[test]
    fn wire_payload_round_trips_to_the_in_process_request() {
        let mut s = EcoStream::new(3, 0, "c", &loads());
        for _ in 0..300 {
            let r = s.next_request().clone();
            let wire = r.wire();
            let line = wire.lines().next().unwrap();
            let ppdl_service::Command::Request { request, .. } =
                ppdl_service::parse_line(line).unwrap()
            else {
                panic!("not a request: {line}");
            };
            assert!(request.payload_eq(&r.payload.request(&r.id)), "{line}");
            assert_eq!(request.id, r.id);
        }
    }
}

//! Seeded request schedules.
//!
//! Every input the benchmark sends is generated here from the workload
//! seed, so the gateway receives only the generated lines and the same
//! seed always yields the same schedule. The generator is the
//! benchmark's own: a change to `pard-workload` moves only the
//! program's side of a comparison, never the inputs.

/// SplitMix64: small, fast, and good enough to drive arrivals.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// The SplitMix64 finaliser; also the outcome hash's mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of one repetition from the run seed, so every
/// repetition of a run sends fresh arrivals and canaries.
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    mix64(seed.wrapping_mul(0x1000_0000_01B3) ^ mix64(rep.wrapping_add(1)))
}

/// Share of requests sent with an infeasible 1 ms SLO. The gateway's
/// edge check must refuse every one of them.
pub const CANARY_FRACTION: f64 = 0.05;

/// Canary selection: a golden-ratio Weyl sequence from a seeded
/// offset. Any run of `n` requests holds `n * CANARY_FRACTION` canaries
/// give or take a few, so the canary share does not add sampling noise
/// to `drop_frac`, while the seed still moves which requests they are.
struct Canaries {
    phase: f64,
}

impl Canaries {
    fn new(rng: &mut Rng) -> Canaries {
        Canaries {
            phase: rng.next_f64(),
        }
    }

    fn next(&mut self) -> bool {
        self.phase = (self.phase + 0.618_033_988_749_894_9) % 1.0;
        self.phase < CANARY_FRACTION
    }
}

/// Burst episodes of the Tweet shape as (start, length, height), with
/// start and length in fractions of the trace. They are fixed rather
/// than drawn from the seed, so a seed changes arrivals, per-second
/// noise and canaries but not how much overload a run meets; that keeps
/// run-to-run spread small. The third episode is the trace's sustained
/// 2.2x step.
const EPISODES: [(f64, f64, f64); 4] = [
    (0.12, 0.06, 1.8),
    (0.30, 0.05, 2.6),
    (0.55, 0.25, 2.2),
    (0.88, 0.04, 1.9),
];

/// Per-second request rates of a Tweet-shaped trace of `len_s` seconds
/// with mean `mean` req/s: a slow swell, short bursts, the sustained
/// 2.2x step, and log-normal per-second noise (sigma 0.16).
pub fn tweet_rates(len_s: usize, mean: f64, rng: &mut Rng) -> Vec<f64> {
    let len = len_s.max(1) as f64;
    let raw: Vec<f64> = (0..len_s)
        .map(|t| {
            let f = t as f64 / len;
            let swell = 1.0 + 0.14 * (2.0 * std::f64::consts::PI * 2.0 * f).sin();
            let burst = EPISODES
                .iter()
                .filter(|&&(at, dur, _)| f >= at && f < at + dur)
                .map(|&(_, _, h)| h)
                .fold(1.0, f64::max);
            swell * burst * (0.16 * rng.normal()).exp()
        })
        .collect();
    let scale = mean / (raw.iter().sum::<f64>() / len);
    raw.into_iter().map(|r| r * scale).collect()
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Item {
    /// Arrival time, virtual microseconds since the start of the trace.
    pub at_us: u64,
    /// Tight-SLO canary (1 ms), refused at the edge.
    pub canary: bool,
}

/// Poisson arrivals following `rates`, one rate per second, with
/// canaries at [`CANARY_FRACTION`].
pub fn arrivals(rates: &[f64], rng: &mut Rng) -> Vec<Item> {
    let mut canaries = Canaries::new(rng);
    let mut items = Vec::with_capacity(rates.iter().sum::<f64>() as usize + 16);
    for (second, &rate) in rates.iter().enumerate() {
        if rate <= 0.0 {
            continue;
        }
        let mut t = rng.exp(1.0 / rate);
        while t < 1.0 {
            items.push(Item {
                at_us: ((second as f64 + t) * 1e6) as u64,
                canary: canaries.next(),
            });
            t += rng.exp(1.0 / rate);
        }
    }
    items
}

/// A Tweet-shaped schedule of `len_s` virtual seconds at mean `mean`.
pub fn tweet_schedule(seed: u64, len_s: usize, mean: f64) -> Vec<Item> {
    let mut rng = Rng::new(seed);
    let rates = tweet_rates(len_s, mean, &mut rng);
    arrivals(&rates, &mut rng)
}

/// A closed-loop schedule: `count` requests with no arrival times
/// (they are sent as soon as the previous answer on the same
/// connection arrives), canaries at [`CANARY_FRACTION`].
pub fn closed_schedule(seed: u64, count: usize) -> Vec<Item> {
    let mut canaries = Canaries::new(&mut Rng::new(seed));
    (0..count)
        .map(|_| Item {
            at_us: 0,
            canary: canaries.next(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        assert_eq!(tweet_schedule(7, 60, 450.0), tweet_schedule(7, 60, 450.0));
        assert_ne!(tweet_schedule(7, 60, 450.0), tweet_schedule(8, 60, 450.0));
        assert_eq!(closed_schedule(7, 500), closed_schedule(7, 500));
        assert_ne!(closed_schedule(7, 500), closed_schedule(8, 500));
        assert_ne!(rep_seed(7, 0), rep_seed(7, 1));
        assert_eq!(rep_seed(7, 1), rep_seed(7, 1));
    }

    #[test]
    fn tweet_schedule_hits_its_mean_and_carries_the_step() {
        let mut rng = Rng::new(3);
        let rates = tweet_rates(240, 450.0, &mut rng);
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!((mean - 450.0).abs() < 1e-6, "mean {mean}");
        let before: f64 = rates[110..130].iter().sum::<f64>() / 20.0;
        let during: f64 = rates[140..185].iter().sum::<f64>() / 45.0;
        assert!(during / before > 1.7, "step ratio {}", during / before);

        let items = tweet_schedule(3, 240, 450.0);
        let per_s = items.len() as f64 / 240.0;
        assert!((per_s - 450.0).abs() < 15.0, "{per_s} req/s");
        assert!(items.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        let canaries = items.iter().filter(|i| i.canary).count() as f64;
        let share = canaries / items.len() as f64;
        assert!(
            (share - CANARY_FRACTION).abs() < 0.001,
            "canary share {share}"
        );
        let closed = closed_schedule(3, 20_000);
        let canaries = closed.iter().filter(|i| i.canary).count();
        assert!(
            canaries.abs_diff(1_000) <= 2,
            "{canaries} canaries in 20000"
        );
    }
}

//! Seeded input generation. The seed drives every draw; the program under
//! test receives only the generated specs.

use svc::{ClusterPreset, FaultScenario, JobSpec};

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be7c_4a11)
    }

    fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Exponential gap with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a byte stream, for input-list digests.
pub fn fnv1a(parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for &b in p.as_ref() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// svc-mix job classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Interactive,
    Sweep,
    Placement,
    Chaos,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::Interactive,
        Class::Sweep,
        Class::Placement,
        Class::Chaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Sweep => "sweep",
            Class::Placement => "placement",
            Class::Chaos => "chaos",
        }
    }
}

/// Tenants and their weighted-fair shares, as in `loadgen`.
pub const TENANTS: [(&str, u32); 4] = [("alpha", 4), ("beta", 2), ("gamma", 1), ("delta", 1)];

/// One block of the stream: `(class, template index, count)`. Every block
/// holds the same 32 jobs in a seeded order, so the mix is the same for
/// every seed and only order, timing, tenants and fault targets vary; a
/// drawn mix moved the latency median between job sizes from seed to seed.
/// The counts make the ~3 ms jobs (one Summit node, one DGX) the middle
/// half of the block, so jobs that queue do not move the median out of
/// that cluster.
const BLOCK: [(Class, usize, usize); 14] = [
    (Class::Interactive, 0, 4),
    (Class::Interactive, 1, 3),
    (Class::Sweep, 0, 6),
    (Class::Sweep, 1, 2),
    (Class::Sweep, 2, 1),
    (Class::Sweep, 3, 1),
    (Class::Sweep, 4, 1),
    (Class::Placement, 0, 5),
    (Class::Placement, 1, 1),
    (Class::Placement, 2, 1),
    (Class::Placement, 3, 1),
    (Class::Chaos, 0, 4),
    (Class::Chaos, 1, 1),
    (Class::Chaos, 2, 1),
];

/// The templates of a class. Chaos templates carry a fault whose target
/// [`arrivals`] re-draws from the seed.
pub fn templates(class: Class) -> Vec<JobSpec> {
    use stencil_core::{Methods, PlacementStrategy};
    let summit = |nodes| ClusterPreset::Summit { nodes };
    let job = |cluster, rpn, extent: u64| JobSpec::new("t", cluster, rpn, [extent; 3]).iters(2);
    match class {
        Class::Interactive => vec![
            job(ClusterPreset::Workstation { gpus: 2 }, 2, 192),
            job(ClusterPreset::Workstation { gpus: 4 }, 4, 256),
        ],
        Class::Sweep => vec![
            job(summit(1), 6, 384),
            job(summit(2), 6, 384).cuda_aware(true).consolidate(true),
            job(summit(4), 6, 384).methods(Methods::all().with_persistent()),
            job(summit(8), 6, 96).methods(Methods::all().with_partitioned()),
            job(summit(16), 6, 96),
        ],
        Class::Placement => vec![
            job(ClusterPreset::Dgx { nodes: 1 }, 8, 256).placement(PlacementStrategy::GreedySwap),
            job(
                ClusterPreset::Fat {
                    nodes: 1,
                    sockets: 2,
                    islands_per_socket: 2,
                    gpus_per_island: 3,
                },
                12,
                256,
            ),
            job(
                ClusterPreset::Fat {
                    nodes: 2,
                    sockets: 2,
                    islands_per_socket: 2,
                    gpus_per_island: 4,
                },
                16,
                384,
            ),
            job(summit(1), 6, 256).placement(PlacementStrategy::Empirical),
        ],
        Class::Chaos => vec![
            job(summit(1), 6, 384).faults(FaultScenario::StragglerGpu {
                device: 0,
                at_us: 0,
                speed_factor: 0.05,
            }),
            job(summit(2), 6, 256)
                .iters(4)
                .faults(FaultScenario::FlappingNic {
                    node: 0,
                    first_down_us: 100,
                    down_us: 500,
                    up_us: 250,
                    flaps: 3,
                }),
            job(summit(2), 6, 256).faults(FaultScenario::KillRespawn {
                rank: 0,
                at_us: 50,
                down_us: 200,
            }),
        ],
    }
}

/// Re-aim a chaos template's fault at a seeded target.
fn aim(spec: JobSpec, rng: &mut Rng) -> JobSpec {
    let faults = match spec.faults {
        FaultScenario::StragglerGpu {
            at_us,
            speed_factor,
            ..
        } => FaultScenario::StragglerGpu {
            device: rng.below(spec.cluster.nodes() * spec.cluster.gpus_per_node()),
            at_us,
            speed_factor,
        },
        FaultScenario::FlappingNic {
            first_down_us,
            down_us,
            up_us,
            flaps,
            ..
        } => FaultScenario::FlappingNic {
            node: rng.below(spec.cluster.nodes()),
            first_down_us,
            down_us,
            up_us,
            flaps,
        },
        FaultScenario::KillRespawn { at_us, down_us, .. } => FaultScenario::KillRespawn {
            rank: rng.below(spec.num_ranks()),
            at_us,
            down_us,
        },
        other => other,
    };
    spec.faults(faults)
}

/// One generated arrival.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Seconds after the stream starts.
    pub due_s: f64,
    pub class: Class,
    pub spec: JobSpec,
}

/// The open-loop arrival stream: whole blocks of jobs, each block in a
/// seeded order, with Poisson gaps of mean `1 / rate`: enough blocks for
/// `rate * span_s` jobs, and at least `min_jobs`.
pub fn arrivals(seed: u64, rate: f64, span_s: f64, min_jobs: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let block: Vec<(Class, JobSpec)> = BLOCK
        .iter()
        .flat_map(|&(class, t, n)| std::iter::repeat_n((class, templates(class)[t].clone()), n))
        .collect();
    let wanted = min_jobs.max((rate * span_s).ceil() as usize);
    let blocks = wanted.div_ceil(block.len());
    let mut out = Vec::with_capacity(blocks * block.len());
    let mut t = 0.0;
    for _ in 0..blocks {
        let mut jobs = block.clone();
        rng.shuffle(&mut jobs);
        for (class, mut spec) in jobs {
            let (tenant, weight) = TENANTS[rng.below(TENANTS.len())];
            spec.tenant = tenant.to_string();
            spec.weight = weight;
            if class == Class::Chaos {
                spec = aim(spec, &mut rng);
            }
            t += rng.exp(1.0 / rate);
            out.push(Arrival {
                due_s: t,
                class,
                spec,
            });
        }
    }
    out
}

/// Digest of a generated input list.
pub fn arrivals_digest(list: &[Arrival]) -> u64 {
    fnv1a(
        list.iter()
            .map(|a| format!("{}|{}", a.due_s.to_bits(), a.spec.to_json())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        let a = arrivals(7, 20.0, 5.0, 50);
        let b = arrivals(7, 20.0, 5.0, 50);
        let c = arrivals(8, 20.0, 5.0, 50);
        assert_eq!(arrivals_digest(&a), arrivals_digest(&b));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.due_s.to_bits(), y.due_s.to_bits());
            assert_eq!(x.spec, y.spec);
        }
        assert_ne!(arrivals_digest(&a), arrivals_digest(&c));
        assert!(a.len() >= 100 && a.len().is_multiple_of(32), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }

    #[test]
    fn every_class_and_tenant_appears_and_specs_validate() {
        let list = arrivals(1, 40.0, 10.0, 200);
        for class in Class::ALL {
            assert!(list.iter().any(|a| a.class == class), "{class:?} missing");
        }
        for (tenant, _) in TENANTS {
            assert!(list.iter().any(|a| a.spec.tenant == tenant));
        }
        for a in &list {
            a.spec
                .validate()
                .expect("generated spec must be admissible");
        }
    }

    #[test]
    fn chaos_targets_follow_the_seed() {
        let targets = |seed| {
            arrivals(seed, 40.0, 20.0, 400)
                .into_iter()
                .filter(|a| a.class == Class::Chaos)
                .map(|a| format!("{:?}", a.spec.faults))
                .collect::<Vec<_>>()
        };
        let a = targets(3);
        assert_eq!(a, targets(3));
        assert_ne!(a, targets(4));
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 3, "targets should vary: {distinct:?}");
    }
}

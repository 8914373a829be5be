//! Seeded inputs. The seed alone fixes every request body and every
//! shuffle seed. Each consumer draws from its own stream, so how many
//! requests one client gets through in a run never shifts another's
//! inputs.

/// Permutation size of the full-table `block` requests.
pub const BLOCK_N: usize = 9;
/// Permutation size of the `random-stream` requests.
pub const STREAM_N: usize = 8;
/// Draws per `random-stream` request.
pub const STREAM_COUNT: usize = 65_536;
/// Permutation size of the interactive `unrank`/`rank` requests.
pub const SMALL_N: usize = 12;

/// splitmix64: the benchmark's own generator, kept apart from the
/// library RNGs it measures.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value below `bound` by multiply-shift; the bias is below 2^-34
    /// for every bound used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// What a bulk request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bulk {
    /// The full `[0, 9!)` table.
    Block,
    /// [`STREAM_COUNT`] guarded random draws from this seed.
    Stream { seed: u64 },
}

/// What an interactive request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Small {
    Unrank { index: u64 },
    Rank { perm: Vec<u32> },
}

/// One request: its id, what it asks for and its exact wire body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<K> {
    pub id: u64,
    pub kind: K,
    pub body: String,
}

/// Every input of a run, drawn from one seed.
pub struct Plan {
    pub bulk: BulkPlan,
    pub small: SmallPlan,
    shuffle: SplitMix,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut root = SplitMix::new(seed);
        Plan {
            bulk: BulkPlan {
                rng: SplitMix::new(root.next_u64()),
                sent: 0,
            },
            small: SmallPlan {
                rng: SplitMix::new(root.next_u64()),
                sent: 0,
            },
            shuffle: SplitMix::new(root.next_u64()),
        }
    }

    /// The LFSR base seed of the next gate-level shuffle check.
    pub fn next_shuffle_seed(&mut self) -> u64 {
        self.shuffle.next_u64()
    }
}

/// The bulk client's requests: full n = 9 blocks alternating with n = 8
/// random streams. Requests omit `chunk`, so the server's default
/// applies.
pub struct BulkPlan {
    rng: SplitMix,
    sent: u64,
}

impl BulkPlan {
    pub fn next_request(&mut self) -> Request<Bulk> {
        self.sent += 1;
        let id = self.sent;
        if id % 2 == 1 {
            Request {
                id,
                kind: Bulk::Block,
                body: format!("{{\"id\":{id},\"cmd\":\"block\",\"n\":{BLOCK_N}}}"),
            }
        } else {
            let seed = self.rng.next_u64();
            Request {
                id,
                kind: Bulk::Stream { seed },
                body: format!(
                    "{{\"id\":{id},\"cmd\":\"random-stream\",\"n\":{STREAM_N},\
                     \"count\":{STREAM_COUNT},\"seed\":{seed}}}"
                ),
            }
        }
    }
}

/// The interactive client's requests: n = 12 unranks of uniform indices
/// alternating with ranks of uniform permutations.
pub struct SmallPlan {
    rng: SplitMix,
    sent: u64,
}

impl SmallPlan {
    pub fn next_request(&mut self) -> Request<Small> {
        self.sent += 1;
        let id = self.sent;
        if id % 2 == 1 {
            let total: u64 = (1..=SMALL_N as u64).product();
            let index = self.rng.below(total);
            Request {
                id,
                kind: Small::Unrank { index },
                body: format!(
                    "{{\"id\":{id},\"cmd\":\"unrank\",\"n\":{SMALL_N},\"index\":{index}}}"
                ),
            }
        } else {
            // Fisher–Yates over 0..n.
            let mut perm: Vec<u32> = (0..SMALL_N as u32).collect();
            for i in (1..SMALL_N).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                perm.swap(i, j);
            }
            let list: Vec<String> = perm.iter().map(u32::to_string).collect();
            Request {
                id,
                body: format!(
                    "{{\"id\":{id},\"cmd\":\"rank\",\"perm\":[{}]}}",
                    list.join(",")
                ),
                kind: Small::Rank { perm },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_serve::{parse_request, Request as Wire, DEFAULT_CHUNK};

    /// Every byte the seed fixes: bulk and interactive bodies in order,
    /// then the shuffle seeds.
    fn transcript(seed: u64) -> String {
        let mut plan = Plan::new(seed);
        let mut out = String::new();
        for _ in 0..64 {
            out += &plan.bulk.next_request().body;
            out += &plan.small.next_request().body;
        }
        for _ in 0..16 {
            out += &plan.next_shuffle_seed().to_string();
        }
        out
    }

    #[test]
    fn one_seed_gives_a_byte_identical_request_sequence() {
        assert_eq!(transcript(1), transcript(1));
        assert_eq!(transcript(u64::MAX), transcript(u64::MAX));
        assert_ne!(transcript(1), transcript(2));
    }

    #[test]
    fn streams_do_not_depend_on_each_other() {
        // Drawing many interactive requests first leaves the bulk
        // sequence and the shuffle seeds where they were.
        let mut a = Plan::new(9);
        let mut b = Plan::new(9);
        for _ in 0..1000 {
            b.small.next_request();
        }
        for _ in 0..10 {
            assert_eq!(a.bulk.next_request(), b.bulk.next_request());
            assert_eq!(a.next_shuffle_seed(), b.next_shuffle_seed());
        }
    }

    #[test]
    fn first_requests_of_seed_one_are_pinned() {
        let mut plan = Plan::new(1);
        let bodies: Vec<String> = (0..2)
            .flat_map(|_| {
                [
                    plan.bulk.next_request().body,
                    plan.small.next_request().body,
                ]
            })
            .collect();
        assert_eq!(bodies, PINNED_SEED_ONE);
    }

    const PINNED_SEED_ONE: [&str; 4] = [
        r#"{"id":1,"cmd":"block","n":9}"#,
        r#"{"id":1,"cmd":"unrank","n":12,"index":223677610}"#,
        r#"{"id":2,"cmd":"random-stream","n":8,"count":65536,"seed":6791897765849424158}"#,
        r#"{"id":2,"cmd":"rank","perm":[7,4,1,9,8,10,2,6,3,5,11,0]}"#,
    ];

    #[test]
    fn every_body_is_a_valid_request_for_what_it_names() {
        let mut plan = Plan::new(3);
        for _ in 0..200 {
            let bulk = plan.bulk.next_request();
            let (id, wire) = parse_request(bulk.body.as_bytes(), DEFAULT_CHUNK).unwrap();
            assert_eq!(id, bulk.id);
            match (bulk.kind, wire) {
                (
                    Bulk::Block,
                    Wire::Block {
                        n,
                        start,
                        end,
                        chunk,
                    },
                ) => {
                    assert_eq!((n, start, end, chunk), (BLOCK_N, 0, 362_880, DEFAULT_CHUNK))
                }
                (
                    Bulk::Stream { seed },
                    Wire::RandomStream {
                        n, count, seed: s, ..
                    },
                ) => {
                    assert_eq!((n, count, s), (STREAM_N, STREAM_COUNT as u64, seed))
                }
                other => panic!("body and kind disagree: {other:?}"),
            }
            let small = plan.small.next_request();
            let (id, wire) = parse_request(small.body.as_bytes(), DEFAULT_CHUNK).unwrap();
            assert_eq!(id, small.id);
            match (small.kind, wire) {
                (Small::Unrank { index }, Wire::Unrank { n, index: i }) => {
                    assert_eq!((n, i), (SMALL_N, index))
                }
                (Small::Rank { perm }, Wire::Rank { perm: p }) => {
                    let mut sorted = p.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, (0..SMALL_N as u32).collect::<Vec<_>>());
                    assert_eq!(p, perm);
                }
                other => panic!("body and kind disagree: {other:?}"),
            }
        }
    }
}

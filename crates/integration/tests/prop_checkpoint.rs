//! Property tests for what a live checkpoint is made of: the table-driven
//! CRC-32 equals the bitwise definition at every length and alignment,
//! and the compact routing-table text round-trips byte for byte, while
//! anything that is not exactly that text is refused as `InvalidData`
//! without a panic.

use proptest::prelude::*;
use routesync_desim::{Duration, SimTime};
use routesync_exec::checkpoint::{crc32, Crc32};
use routesync_netsim::{RouteEntry, RoutingTable};

/// CRC-32 straight from its definition: one bit at a time, reflected
/// IEEE polynomial.
fn bitwise_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc
}

#[test]
fn crc32_equals_the_bitwise_definition_at_every_length_and_alignment() {
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(bitwise_update(!0, b"123456789"), !0xcbf4_3926);
    const MAX_LEN: usize = 4096;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let bytes: Vec<u8> = (0..MAX_LEN + 8)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        })
        .collect();
    for start in 0..8 {
        let data = &bytes[start..start + MAX_LEN];
        // The reference runs once per start; each prefix's CRC is its
        // running state.
        let mut reference = !0u32;
        for len in 0..=MAX_LEN {
            assert_eq!(
                crc32(&data[..len]),
                !reference,
                "length {len} at start offset {start}"
            );
            if len < MAX_LEN {
                reference = bitwise_update(reference, &data[len..=len]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any split into three pieces checksums like the whole.
    #[test]
    fn incremental_crc_equals_one_shot(
        bytes in collection::vec(any::<u8>(), 0..600),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let (mut i, mut j) = (a % (bytes.len() + 1), b % (bytes.len() + 1));
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let mut crc = Crc32::new();
        crc.update(&bytes[..i]);
        crc.update(&bytes[i..j]);
        crc.update(&bytes[j..]);
        prop_assert_eq!(crc.finish(), crc32(&bytes));
        prop_assert_eq!(crc32(&bytes), !bitwise_update(!0, &bytes));
    }
}

/// One step of a router's life, as the simulator and the daemon drive a
/// table.
#[derive(Debug, Clone)]
enum Op {
    Direct(usize),
    Update {
        from: usize,
        entries: Vec<(usize, u32)>,
        at_s: u64,
        holddown_s: Option<u64>,
    },
    Fail {
        via: usize,
        at_s: u64,
        holddown_s: Option<u64>,
    },
    Expire {
        at_s: u64,
        timeout_s: u64,
    },
    Gc {
        at_s: u64,
        grace_s: u64,
    },
    Reset,
}

/// A random [`Op`] over nodes `0..40` and the first 5,000 seconds.
fn op() -> impl Strategy<Value = Op> {
    strategy::fn_strategy(|rng: &mut TestRng| {
        let node = |rng: &mut TestRng| (0usize..40).generate(rng);
        let at_s = |rng: &mut TestRng| (0u64..5_000).generate(rng);
        let holddown_s = |rng: &mut TestRng| {
            let h = (0u64..400).generate(rng);
            (h > 0).then_some(h)
        };
        match (0u8..6).generate(rng) {
            0 => Op::Direct(node(rng)),
            1 => {
                let n = (0usize..12).generate(rng);
                Op::Update {
                    from: node(rng),
                    entries: (0..n)
                        .map(|_| (node(rng), (0u32..20).generate(rng)))
                        .collect(),
                    at_s: at_s(rng),
                    holddown_s: holddown_s(rng),
                }
            }
            2 => Op::Fail {
                via: node(rng),
                at_s: at_s(rng),
                holddown_s: holddown_s(rng),
            },
            3 => Op::Expire {
                at_s: at_s(rng),
                timeout_s: (1u64..600).generate(rng),
            },
            4 => Op::Gc {
                at_s: at_s(rng),
                grace_s: (1u64..600).generate(rng),
            },
            _ => Op::Reset,
        }
    })
}

/// A table after `ops`: hold-downs, dead routes, garbage-collected
/// entries, direct routes heard at `SimTime::MAX`, and always the self
/// route.
fn table_after(me: usize, ops: &[Op]) -> RoutingTable {
    const INFINITY: u32 = 16;
    let secs = SimTime::from_secs;
    let hold = |h: Option<u64>| h.map(Duration::from_secs);
    let mut t = RoutingTable::new(me);
    for op in ops {
        match op {
            Op::Direct(nb) => t.install_direct(*nb),
            Op::Update {
                from,
                entries,
                at_s,
                holddown_s,
            } => {
                let entries: Vec<RouteEntry> = entries
                    .iter()
                    .map(|&(dst, metric)| RouteEntry { dst, metric })
                    .collect();
                t.process_update_with(*from, &entries, secs(*at_s), INFINITY, hold(*holddown_s));
            }
            Op::Fail {
                via,
                at_s,
                holddown_s,
            } => {
                t.fail_via_with(*via, INFINITY, secs(*at_s), hold(*holddown_s));
            }
            Op::Expire { at_s, timeout_s } => {
                t.expire(secs(*at_s), Duration::from_secs(*timeout_s), INFINITY);
            }
            Op::Gc { at_s, grace_s } => {
                t.gc_due(secs(*at_s), Duration::from_secs(*grace_s), INFINITY)
            }
            Op::Reset => t.reset(),
        }
    }
    t
}

fn compact(t: &RoutingTable) -> String {
    let mut out = String::new();
    t.write_compact(&mut out);
    out
}

/// Either `text` is refused as `InvalidData`, or it is canonical: the
/// parsed table writes back to exactly `text`.
fn refused_or_canonical(text: &str) -> Result<(), TestCaseError> {
    match RoutingTable::parse_compact(text) {
        Ok(t) => prop_assert_eq!(compact(&t), text),
        Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// write → parse → write is the identity on the text, and the parsed
    /// table holds exactly the written routes.
    #[test]
    fn compact_tables_round_trip_byte_for_byte(
        me in 0usize..40,
        ops in collection::vec(op(), 0..40),
    ) {
        let t = table_after(me, &ops);
        let text = compact(&t);
        let back = RoutingTable::parse_compact(&text).expect("written text parses");
        prop_assert_eq!(back.me(), me);
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), t.iter().collect::<Vec<_>>());
        prop_assert_eq!(compact(&back), text);
    }

    /// Corrupting written text — truncating it, flipping a byte, or
    /// splicing in a byte — never panics, and whatever still parses is
    /// canonical.
    #[test]
    fn corrupted_compact_text_is_refused_or_canonical(
        me in 0usize..40,
        ops in collection::vec(op(), 0..20),
        pos in any::<usize>(),
        pick in any::<usize>(),
    ) {
        const BYTES: &[u8] = b"0123456789;,hd-+ x\n";
        let byte = BYTES[pick % BYTES.len()];
        let text = compact(&table_after(me, &ops));
        let i = pos % (text.len() + 1);
        refused_or_canonical(&text[..i])?;
        let mut flipped = text.clone().into_bytes();
        if i < flipped.len() {
            flipped[i] = byte;
        }
        refused_or_canonical(std::str::from_utf8(&flipped).expect("ASCII"))?;
        let mut spliced = text.into_bytes();
        spliced.insert(i, byte);
        refused_or_canonical(std::str::from_utf8(&spliced).expect("ASCII"))?;
    }

    /// Arbitrary strings over the codec's alphabet never panic the
    /// parser, and whatever parses is canonical.
    #[test]
    fn arbitrary_text_is_refused_or_canonical(
        picks in collection::vec(any::<usize>(), 0..40),
    ) {
        const ALPHABET: &[u8] = b"0123456789;,hd";
        let text: String = picks
            .iter()
            .map(|&p| char::from(ALPHABET[p % ALPHABET.len()]))
            .collect();
        refused_or_canonical(&text)?;
    }
}

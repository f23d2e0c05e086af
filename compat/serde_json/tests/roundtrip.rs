//! The JSON layer as a dependency is tested: pinned encodings of a fixed
//! random corpus, and round-trip properties over strings, floats, integers
//! and whole value trees.

use proptest::prelude::*;
use serde_json::{from_str, parse_value, to_string, to_string_pretty, Value};

/// splitmix64: the corpus generator, kept here so the pinned digests do not
/// depend on any other crate's random stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}

/// Characters that stress the string writer: every escape JSON names,
/// raw control characters, DEL, two- to four-byte UTF-8 and the last
/// scalar value.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{0}',
    '\u{1}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '中',
    '\u{2028}',
    '\u{fffd}',
    '💡',
    '\u{10ffff}',
];

const TWO_53: f64 = 9_007_199_254_740_992.0;

fn gen_string(rng: &mut SplitMix) -> String {
    let len = rng.below(12);
    (0..len).map(|_| rng.pick(CHARS)).collect()
}

fn gen_f64(rng: &mut SplitMix) -> f64 {
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    match rng.below(6) {
        // Random bits: any finite value, most of them far from 1.
        0 => loop {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                break f;
            }
        },
        1 => rng.pick(&[
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            TWO_53 - 1.0,
            TWO_53,
            TWO_53 + 2.0,
            -TWO_53,
        ]),
        // Subnormals.
        2 => sign * f64::from_bits(rng.below(1 << 52)),
        // Integral, below 2^53 and (mostly) above it.
        3 => sign * (rng.below(1 << 53) as f64),
        4 => sign * (rng.next() as f64),
        _ => sign * (rng.below(1_000_000) as f64 / 1000.0),
    }
}

fn gen_value(rng: &mut SplitMix, depth: u32) -> Value {
    let kinds = if depth >= 4 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::UInt(match rng.below(4) {
            0 => rng.below(100),
            1 => u64::MAX,
            _ => rng.next(),
        }),
        // `Int` holds only negative values, as the parser produces them.
        3 => Value::Int(match rng.below(4) {
            0 => -1 - rng.below(100) as i64,
            1 => i64::MIN,
            _ => (rng.next() | 1 << 63) as i64,
        }),
        4 => Value::Float(gen_f64(rng)),
        5 => Value::Str(gen_string(rng)),
        6 => Value::Array(
            (0..rng.below(5))
                .map(|_| gen_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| (gen_string(rng), gen_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Digests of the compact and pretty encodings of 500 fixed-seed trees,
/// pinned when `Value` was still printed by its own tree printer: the
/// writer must reproduce that output byte for byte.
#[test]
fn corpus_encodings_match_the_pinned_digests() {
    let mut rng = SplitMix(20);
    let (mut compact, mut pretty) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    for _ in 0..500 {
        let v = gen_value(&mut rng, 0);
        compact = fnv1a(to_string(&v).unwrap().as_bytes(), compact);
        compact = fnv1a(b"\n", compact);
        pretty = fnv1a(to_string_pretty(&v).unwrap().as_bytes(), pretty);
        pretty = fnv1a(b"\n", pretty);
    }
    assert_eq!(
        (compact, pretty),
        (0xdb1a_1a0c_cec4_6c78, 0xa1ab_afe1_8974_1904),
        "compact {compact:#018x}, pretty {pretty:#018x}"
    );
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u64>(), 0..40).prop_map(|draws| {
        draws
            .into_iter()
            .map(|u| match u % 2 {
                0 => CHARS[(u >> 1) as usize % CHARS.len()],
                _ => char::from_u32((u >> 1) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_string_roundtrips(s in any_string()) {
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn finite_floats_roundtrip_bit_exact(bits in any::<u64>()) {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
            prop_assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn integers_roundtrip(u in prop_oneof![
        any::<u64>(),
        Just(0u64),
        Just(u64::MAX),
        Just(1u64 << 63),
        Just((1u64 << 63) - 1),
    ]) {
        prop_assert_eq!(from_str::<u64>(&to_string(&u).unwrap()).unwrap(), u);
        let i = u as i64;
        prop_assert_eq!(from_str::<i64>(&to_string(&i).unwrap()).unwrap(), i);
    }

    #[test]
    fn value_trees_reparse_equal(seed in any::<u64>()) {
        let v = gen_value(&mut SplitMix(seed), 0);
        prop_assert_eq!(parse_value(&to_string(&v).unwrap()).unwrap(), v.clone());
        prop_assert_eq!(parse_value(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }
}
